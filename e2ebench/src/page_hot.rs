//! `page-hot`: the buffer manager's hit path on its own (the paper's §6.3
//! buffer-manager ops/s). Two clients read (95 %) or write (5 %) one
//! 1000-B slot of 1024 resident 16 KB pages, chosen at Zipf θ 0.9.
//!
//! The buffer manager does not latch pages, so the clients keep their own
//! per-slot sequence lock: a writer holds the slot, and a reader that
//! overlapped a write reads again. Without it a read torn by a concurrent
//! write would be the benchmark's race, not a fault of the program.

use std::hint::spin_loop;
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::Rng;
use spitfire_core::{BufferManager, BufferManagerConfig, PageId};
use spitfire_wkld::ScrambledZipf;

use crate::harness::{self, Client, Outcome, Status, Tally};
use crate::report::{self, CoreCounters, Report};
use crate::trace::{self, Tracer};
use crate::{check, Args, Run, Setup};

const PAGES: u64 = 1024;
const SLOT: usize = 1000;
const SLOTS_PER_PAGE: u64 = 16;
const SLOTS: u64 = PAGES * SLOTS_PER_PAGE;
const THETA: f64 = 0.9;
const READ_PCT: u32 = 95;
/// A buffer hit is ~100 ns, so only one op in this many is timed.
const TIME_EVERY: u64 = 8;
/// Lead-in before the measured window.
const WARMUP: Duration = Duration::from_secs(2);
/// Ops per traced root span.
const TRACE_EVERY: u64 = 16;

struct Store {
    bm: Arc<BufferManager>,
    pids: Vec<PageId>,
    /// Per-slot sequence lock: odd while a writer holds the slot.
    seq: Vec<AtomicU64>,
}

impl Store {
    fn build() -> Result<Store, String> {
        let config = BufferManagerConfig::builder()
            .dram_capacity(64 << 20)
            .nvm_capacity(128 << 20)
            .build()
            .map_err(|e| e.to_string())?;
        let bm = Arc::new(BufferManager::new(config).map_err(|e| e.to_string())?);
        let mut pids = Vec::with_capacity(PAGES as usize);
        let mut value = vec![0u8; SLOT];
        for p in 0..PAGES {
            let pid = bm.allocate_page().map_err(|e| e.to_string())?;
            let guard = bm.fetch_write(pid).map_err(|e| e.to_string())?;
            for s in 0..SLOTS_PER_PAGE {
                check::encode(p * SLOTS_PER_PAGE + s, 0, &mut value);
                guard
                    .write(s as usize * SLOT, &value)
                    .map_err(|e| e.to_string())?;
            }
            pids.push(pid);
        }
        Ok(Store {
            bm,
            pids,
            seq: (0..SLOTS).map(|_| AtomicU64::new(0)).collect(),
        })
    }

    fn locate(&self, slot: u64) -> (PageId, usize) {
        (
            self.pids[(slot / SLOTS_PER_PAGE) as usize],
            (slot % SLOTS_PER_PAGE) as usize * SLOT,
        )
    }

    /// Read `slot` into `buf`, retrying while a writer overlaps.
    fn read(&self, slot: u64, buf: &mut [u8], tracer: &mut Tracer) -> Result<(), String> {
        let (pid, off) = self.locate(slot);
        let seq = &self.seq[slot as usize];
        loop {
            let s1 = seq.load(Ordering::Acquire);
            if s1 & 1 == 1 {
                spin_loop();
                continue;
            }
            let guard = tracer
                .span("core.fetch_read", || self.bm.fetch_read(pid))
                .map_err(|e| format!("fetch_read: {e}"))?;
            let copied = tracer.span("core.page_copy", || guard.read(off, buf));
            tracer.span("core.unpin", || drop(guard));
            copied.map_err(|e| format!("read: {e}"))?;
            fence(Ordering::Acquire);
            // relaxed: the acquire fence above orders it after the copy.
            if seq.load(Ordering::Relaxed) == s1 {
                return Ok(());
            }
        }
    }

    fn write(&self, slot: u64, value: &[u8], tracer: &mut Tracer) -> Result<(), String> {
        let (pid, off) = self.locate(slot);
        let seq = &self.seq[slot as usize];
        let s = loop {
            // relaxed: a guess for the CAS, which does the synchronising.
            let s = seq.load(Ordering::Relaxed);
            if s & 1 == 0
                && seq
                    .compare_exchange_weak(s, s + 1, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
            {
                break s;
            }
            spin_loop();
        };
        // Make the odd count visible before any byte of the new value.
        fence(Ordering::Release);
        let result = (|| {
            let guard = tracer
                .span("core.fetch_write", || self.bm.fetch_write(pid))
                .map_err(|e| format!("fetch_write: {e}"))?;
            let written = tracer.span("core.page_copy", || guard.write(off, value));
            tracer.span("core.unpin", || drop(guard));
            written.map_err(|e| format!("write: {e}"))
        })();
        seq.store(s + 2, Ordering::Release);
        result
    }
}

struct PageClient<'a> {
    store: &'a Store,
    rng: SmallRng,
    zipf: &'a ScrambledZipf,
    offset: u64,
    id: u64,
    writes: u64,
    buf: Vec<u8>,
}

impl Client for PageClient<'_> {
    fn op(&mut self, timed: bool, tracer: &mut Tracer) -> Outcome {
        let slot = (self.zipf.sample(&mut self.rng) + self.offset) % SLOTS;
        let write = self.rng.gen_range(0..100u32) >= READ_PCT;
        tracer.begin_op(if write { "op.write" } else { "op.read" });
        let t0 = timed.then(Instant::now);
        let result = if write {
            self.writes += 1;
            check::encode(slot, (self.id << 48) | self.writes, &mut self.buf);
            self.store.write(slot, &self.buf, tracer)
        } else {
            self.store.read(slot, &mut self.buf, tracer)
        };
        let latency_ns = t0.map(|t| t.elapsed().as_nanos() as u64);
        tracer.end_op();
        let status = match result {
            Err(e) => Status::Error(e),
            Ok(()) if write => Status::Ok,
            Ok(()) => match check::verify(slot, &self.buf, SLOT) {
                Ok(_) => Status::Ok,
                Err(m) => Status::Mismatch(format!("slot {slot}: {m:?}")),
            },
        };
        Outcome::new(write, latency_ns, status, 1)
    }
}

/// Read back every slot; returns the number that fail their check.
fn verify_all(store: &Store, report: &mut Report) -> u64 {
    let mut tracer = Tracer::new(Instant::now(), 0, 1);
    let mut buf = vec![0u8; SLOT];
    let mut bad = 0;
    for slot in 0..SLOTS {
        let problem = match store.read(slot, &mut buf, &mut tracer) {
            Err(e) => Some(e),
            Ok(()) => check::verify(slot, &buf, SLOT)
                .err()
                .map(|m| format!("{m:?}")),
        };
        if let Some(p) = problem {
            bad += 1;
            if bad <= 5 {
                report.notes.push(format!("final pass: slot {slot}: {p}"));
            }
        }
    }
    bad
}

fn clients<'a>(store: &'a Store, zipf: &'a ScrambledZipf, args: &Args) -> Vec<PageClient<'a>> {
    let offset = args.hot_offset(SLOTS);
    (0..crate::CLIENTS as u64)
        .map(|id| PageClient {
            store,
            rng: args.client_rng(id),
            zipf,
            offset,
            id,
            writes: 0,
            buf: vec![0u8; SLOT],
        })
        .collect()
}

/// Run the workload. Every instance set up is measured, each for an equal
/// share of the window: in one process, one instance ran at 1.9 M ops/s
/// and the next at 1.45 M, as far apart as whole runs.
pub fn run(args: &Args) -> Result<Run, String> {
    let zipf = ScrambledZipf::new(SLOTS, THETA);
    let mut tally = Tally::default();
    let mut report = Report::default();
    let mut late = 0;
    let (
        Setup {
            value: store,
            seconds: setup_s,
        },
        measured,
    ) = crate::measure_each_setup(Store::build, |store, last| {
        let mut clients = clients(store, &zipf, args);
        let epoch = Instant::now();
        let mut tracers: Vec<Tracer> = (0..clients.len() as u64)
            .map(|t| Tracer::new(epoch, t, TRACE_EVERY))
            .collect();
        let snapshot = || CoreCounters::read(&store.bm);
        let plan = args.plan(WARMUP, TIME_EVERY, crate::SETUPS);
        let window = harness::run(&mut clients, &mut tracers, plan, snapshot);
        tally.add(&window.log);
        let mut traced = None;
        if last && args.trace {
            let plan = args.traced_plan(TIME_EVERY);
            let t = harness::run(&mut clients, &mut tracers, plan, snapshot);
            tally.add(&t.log);
            let spans: Vec<_> = tracers.iter_mut().flat_map(Tracer::take).collect();
            traced = Some((t.calm_throughput(), spans));
        }
        let bad = verify_all(store, &mut report);
        tally.add_checks(SLOTS, bad);
        late += bad;
        Ok((window, traced))
    })?;
    let (mut windows, traced): (Vec<_>, Vec<_>) = measured.into_iter().unzip();
    // Counters and spans come from the last instance.
    let window = windows.pop().expect("SETUPS > 0");
    if let Some((traced_ops_s, spans)) = traced.into_iter().flatten().next() {
        crate::analyse_spans(&mut report, &spans, window.calm_throughput(), traced_ops_s)?;
        for (name, span, pct) in [
            ("core.fetch_read_p50_ns", "core.fetch_read", 50.0),
            ("core.fetch_read_p99_ns", "core.fetch_read", 99.0),
            ("core.fetch_write_p50_ns", "core.fetch_write", 50.0),
            ("core.fetch_write_p99_ns", "core.fetch_write", 99.0),
            ("core.page_copy_p50_ns", "core.page_copy", 50.0),
            ("core.unpin_p50_ns", "core.unpin", 50.0),
        ] {
            report.set_quantile(name, &mut trace::durations(&spans, span, None), pct, 1.0);
        }
    }

    report.set("setup_s", setup_s);
    let counters = window.after.since(&window.before);
    let ops = window.log.ops();
    report.set(
        "nvm_write_bytes_per_op",
        report::ratio(counters.nvm_bytes_written() as f64, ops as f64),
    );
    let allocated = store.bm.page_count() * store.bm.page_size() as u64;
    report.set(
        "space_amp",
        allocated as f64 / (SLOTS as usize * SLOT) as f64,
    );
    report::set_core_counters(&mut report, &counters, ops);
    windows.push(window);
    report::set_client_metrics(&mut report, &harness::chain(windows), late);
    report.absent("server.", "page-hot runs no server");
    report.absent("txn.", "page-hot runs no transactions");
    report.absent("wal.", "page-hot has no write-ahead log");

    let mut meta = crate::base_meta(args);
    let cfg = store.bm.config();
    crate::buffer_meta(&mut meta, cfg);
    meta.num("pages", PAGES as f64);
    meta.num("slot_bytes", SLOT as f64);
    meta.num("zipf_theta", THETA);
    meta.num("read_pct", READ_PCT);
    meta.num("time_every", TIME_EVERY as f64);
    meta.num("instances_measured", crate::SETUPS as f64);
    Ok(Run {
        report,
        meta,
        tally,
    })
}
