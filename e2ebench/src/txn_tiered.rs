//! `txn-tiered`: single-op transactions over a table 3.2× the size of both
//! buffers together, so every tier is busy. 50 % `read_into`, 50 %
//! `update`, at Zipf θ 0.9, with buffer maintenance started as the server
//! starts it and one thread running `checkpoint` then `vacuum` on a fixed
//! period (without it the WAL and the version chains grow without bound).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::Rng;
use spitfire_core::{BufferManager, BufferManagerConfig, Maintenance};
use spitfire_txn::{Database, DbConfig, TxnError};
use spitfire_wkld::ScrambledZipf;

use crate::db::{self, DbCounters};
use crate::harness::{self, Attempt, Client, Outcome, Status, Tally};
use crate::report::{self, ratio, Report};
use crate::trace::{self, Tracer};
use crate::{check, Args, Run, Setup};

const TABLE: u32 = 0;
const TUPLE: usize = 1000;
/// 8192 pages of 15 slots (1000-B tuple + 40-B version header): a
/// 128 MiB table against 8 MiB DRAM + 32 MiB NVM.
const KEYS: u64 = 8192 * 15;
const THETA: f64 = 0.9;
const READ_PCT: u32 = 50;
/// Period of the checkpoint-then-vacuum thread.
const HOUSEKEEPING_PERIOD: Duration = Duration::from_millis(1000);
/// Lead-in before the measured window: the read latency settles only
/// once updates have grown the version chains and vacuum runs back to
/// back, about 8 s after the load.
const WARMUP: Duration = Duration::from_secs(10);
/// Ops per traced root span.
const TRACE_EVERY: u64 = 4;

/// The two housekeeping tasks, in the order each pass runs them.
const TASKS: [&str; 2] = ["txn.checkpoint", "txn.vacuum"];

/// Busy time per task: finished time, ns, and the task running now with
/// its start, so a reading taken in the middle of a pass is exact.
#[derive(Default, Clone, Copy)]
struct BusyClock {
    done: [u64; 2],
    running: Option<(usize, Instant)>,
}

/// Busy time and output of the checkpoint-then-vacuum thread.
#[derive(Default)]
struct HousekeepingStats {
    busy: Mutex<BusyClock>,
    freed: AtomicU64,
    contended: AtomicU64,
    errors: Mutex<Vec<String>>,
    tracing: AtomicBool,
    spans: Mutex<Vec<(&'static str, Instant, Instant)>>,
}

impl HousekeepingStats {
    /// Run task `i` of [`TASKS`], timing it.
    fn timed<T>(&self, i: usize, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        self.busy.lock().expect("busy clock").running = Some((i, started));
        let out = f();
        let ended = Instant::now();
        {
            let mut busy = self.busy.lock().expect("busy clock");
            busy.done[i] += (ended - started).as_nanos() as u64;
            busy.running = None;
        }
        if self.tracing.load(Ordering::Acquire) {
            self.spans
                .lock()
                .expect("span list")
                .push((TASKS[i], started, ended));
        }
        out
    }

    /// Busy time per task so far, ns, counting a task still running.
    fn busy_ns(&self) -> [u64; 2] {
        let BusyClock { mut done, running } = *self.busy.lock().expect("busy clock");
        if let Some((i, since)) = running {
            done[i] += since.elapsed().as_nanos() as u64;
        }
        done
    }

    fn fail(&self, what: String) {
        self.errors.lock().expect("error list").push(what);
    }
}

/// The checkpoint-then-vacuum thread; stops and joins on drop.
struct Housekeeper {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
    stats: Arc<HousekeepingStats>,
}

impl Housekeeper {
    /// Start a pass every [`HOUSEKEEPING_PERIOD`], or as soon as the last
    /// one ends when a pass takes longer.
    fn start(db: Arc<Database>) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(HousekeepingStats::default());
        let (stop2, hk) = (Arc::clone(&stop), Arc::clone(&stats));
        let handle = std::thread::spawn(move || {
            let mut next = Instant::now() + HOUSEKEEPING_PERIOD;
            while !stop2.load(Ordering::Acquire) {
                let now = Instant::now();
                if now < next {
                    std::thread::sleep((next - now).min(Duration::from_millis(10)));
                    continue;
                }
                next = now + HOUSEKEEPING_PERIOD;
                match hk.timed(0, || db.checkpoint()) {
                    Ok(_) => {}
                    Err(TxnError::CheckpointContended) => {
                        // relaxed: a statistic read after the run.
                        hk.contended.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(e) => hk.fail(format!("checkpoint: {e}")),
                }
                match hk.timed(1, || db.vacuum()) {
                    // relaxed: a statistic, read around the window.
                    Ok(v) => _ = hk.freed.fetch_add(v.freed as u64, Ordering::Relaxed),
                    Err(e) => hk.fail(format!("vacuum: {e}")),
                }
            }
        });
        Housekeeper {
            stop,
            handle: Some(handle),
            stats,
        }
    }
}

impl Drop for Housekeeper {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// One built instance. Field order is drop order: the housekeeper stops
/// before buffer maintenance does.
struct Instance {
    housekeeper: Housekeeper,
    /// Held so the workers run; dropping it stops them.
    _maintenance: Maintenance,
    db: Arc<Database>,
    bm: Arc<BufferManager>,
}

impl Instance {
    fn build() -> Result<Instance, String> {
        let e = |e: &dyn std::fmt::Display| e.to_string();
        let config = BufferManagerConfig::builder()
            .dram_capacity(8 << 20)
            .nvm_capacity(32 << 20)
            .build()
            .map_err(|x| e(&x))?;
        let bm = Arc::new(BufferManager::new(config).map_err(|x| e(&x))?);
        let maintenance = bm.maintenance();
        let db =
            Arc::new(Database::create(Arc::clone(&bm), DbConfig::default()).map_err(|x| e(&x))?);
        db.create_table(TABLE, TUPLE).map_err(|x| e(&x))?;
        db::load(&db, TABLE, KEYS, TUPLE, <[u8]>::to_vec)?;
        // As the server does: maintenance starts after the bulk load.
        maintenance.start();
        let housekeeper = Housekeeper::start(Arc::clone(&db));
        Ok(Instance {
            housekeeper,
            _maintenance: maintenance,
            db,
            bm,
        })
    }
}

struct TxnClient<'a> {
    db: &'a Database,
    rng: SmallRng,
    zipf: &'a ScrambledZipf,
    offset: u64,
    id: u64,
    writes: u64,
    buf: Vec<u8>,
}

/// Commit after `r` succeeded, abort after it failed; say how the attempt
/// ended.
fn settle(
    db: &Database,
    txn: &mut spitfire_txn::Transaction,
    tracer: &mut Tracer,
    r: Result<(), TxnError>,
) -> Attempt {
    let failed = |what: String| Attempt::Failed(Status::Error(what));
    match r {
        Ok(()) => match tracer.span("txn.commit", || db.commit(txn)) {
            Ok(()) => Attempt::Done,
            Err(e) if e.is_retryable() => Attempt::Refused,
            Err(e) => failed(format!("commit: {e}")),
        },
        Err(e) => {
            let _ = tracer.span("txn.abort", || db.abort(txn));
            if e.is_retryable() {
                Attempt::Refused
            } else {
                failed(e.to_string())
            }
        }
    }
}

impl Client for TxnClient<'_> {
    fn op(&mut self, timed: bool, tracer: &mut Tracer) -> Outcome {
        let key = (self.zipf.sample(&mut self.rng) + self.offset) % KEYS;
        let write = self.rng.gen_range(0..100u32) >= READ_PCT;
        if write {
            self.writes += 1;
            check::encode(key, (self.id << 48) | self.writes, &mut self.buf);
        }
        tracer.begin_op(if write { "op.write" } else { "op.read" });
        let t0 = timed.then(Instant::now);
        let (db, buf) = (self.db, &mut self.buf);
        let (status, attempts) = harness::with_retries(|| {
            let mut txn = tracer.span("txn.begin", || db.begin());
            let r = if write {
                tracer.span("txn.update", || db.update(&mut txn, TABLE, key, buf))
            } else {
                tracer.span("txn.read_into", || db.read_into(&txn, TABLE, key, buf))
            };
            settle(db, &mut txn, tracer, r)
        });
        let latency_ns = t0.map(|t| t.elapsed().as_nanos() as u64);
        tracer.end_op();
        let status = match status {
            Status::Ok if !write => match check::verify(key, &self.buf, TUPLE) {
                Ok(_) => Status::Ok,
                Err(m) => Status::Mismatch(format!("key {key}: {m:?}")),
            },
            Status::Error(e) => Status::Error(format!("key {key}: {e}")),
            s => s,
        };
        Outcome::new(write, latency_ns, status, attempts)
    }
}

/// Counters read around a window.
struct Counters {
    db: DbCounters,
    busy_ns: [u64; 2],
    freed: u64,
}

impl Counters {
    fn read(inst: &Instance) -> Self {
        let hk = &inst.housekeeper.stats;
        Counters {
            db: DbCounters::read(&inst.db),
            busy_ns: hk.busy_ns(),
            // relaxed: a statistic; no other data hangs on it.
            freed: hk.freed.load(Ordering::Relaxed),
        }
    }
}

/// Run the workload.
pub fn run(args: &Args) -> Result<Run, String> {
    let Setup {
        value: inst,
        seconds: setup_s,
    } = crate::setup_median(Instance::build)?;
    let zipf = ScrambledZipf::new(KEYS, THETA);
    let offset = args.hot_offset(KEYS);
    let mut clients: Vec<TxnClient> = (0..crate::CLIENTS as u64)
        .map(|id| TxnClient {
            db: &inst.db,
            rng: args.client_rng(id),
            zipf: &zipf,
            offset,
            id,
            writes: 0,
            buf: vec![0u8; TUPLE],
        })
        .collect();
    let epoch = Instant::now();
    let mut tracers: Vec<Tracer> = (0..clients.len() as u64)
        .map(|t| Tracer::new(epoch, t, TRACE_EVERY))
        .collect();
    let snapshot = || Counters::read(&inst);

    let window = harness::run(
        &mut clients,
        &mut tracers,
        args.plan(WARMUP, 1, 1),
        snapshot,
    );
    let mut tally = Tally::default();
    tally.add(&window.log);
    let mut report = Report::default();
    if args.trace {
        let hk = &inst.housekeeper.stats;
        hk.tracing.store(true, Ordering::Release);
        let traced = harness::run(&mut clients, &mut tracers, args.traced_plan(1), snapshot);
        hk.tracing.store(false, Ordering::Release);
        tally.add(&traced.log);
        let mut spans: Vec<_> = tracers.iter_mut().flat_map(Tracer::take).collect();
        let mut background = Tracer::new(epoch, crate::CLIENTS as u64, 1);
        for (name, s, e) in hk.spans.lock().expect("span list").drain(..) {
            background.record_root(name, s, e);
        }
        spans.extend(background.take());
        crate::analyse_spans(
            &mut report,
            &spans,
            window.calm_throughput(),
            traced.calm_throughput(),
        )?;
        for (name, span, root, pct) in [
            ("txn.read_p50_us", "txn.read_into", None, 50.0),
            ("txn.read_p99_us", "txn.read_into", None, 99.0),
            ("txn.update_p50_us", "txn.update", None, 50.0),
            ("txn.update_p99_us", "txn.update", None, 99.0),
            ("txn.commit_p50_us", "txn.commit", Some("op.write"), 50.0),
            ("txn.commit_p99_us", "txn.commit", Some("op.write"), 99.0),
        ] {
            report.set_quantile(name, &mut trace::durations(&spans, span, root), pct, 1e3);
        }
    }
    let late = db::verify_all(&inst.db, TABLE, KEYS, TUPLE, |row| Some(row), &mut report);
    tally.add_checks(KEYS, late);

    report.set("setup_s", setup_s);
    report::set_client_metrics(&mut report, &window, late);
    let (b, a) = (&window.before, &window.after);
    let ops = window.log.ops() as f64;
    db::set_counter_metrics(
        &mut report,
        &b.db,
        &a.db,
        window.log.ops(),
        window.log.ok_writes,
    );
    let allocated = inst.bm.page_count() * inst.bm.page_size() as u64;
    report.set(
        "space_amp",
        allocated as f64 / (KEYS as usize * TUPLE) as f64,
    );
    let window_ns = window.elapsed.as_nanos() as f64;
    report.set(
        "txn.conflict_ratio",
        ratio(window.log.refusals as f64, window.log.attempts as f64),
    );
    report.set(
        "txn.vacuum_busy_ratio",
        ratio((a.busy_ns[1] - b.busy_ns[1]) as f64, window_ns),
    );
    report.set(
        "txn.vacuum_freed_per_op",
        ratio((a.freed - b.freed) as f64, ops),
    );
    report.set(
        "txn.checkpoint_busy_ratio",
        ratio((a.busy_ns[0] - b.busy_ns[0]) as f64, window_ns),
    );
    report.absent(
        "server.",
        "txn-tiered calls the database in-process, with no server",
    );
    let inside = "txn-tiered reaches the buffer manager only inside txn calls";
    for prefix in ["core.fetch_", "core.page_copy", "core.unpin"] {
        report.absent(prefix, inside);
    }
    let hk = &inst.housekeeper.stats;
    report.notes.push(format!(
        "housekeeping: {} checkpoints contended",
        // relaxed: a statistic, read after the thread's last pass.
        hk.contended.load(Ordering::Relaxed)
    ));
    let errors = hk.errors.lock().expect("error list");
    for e in errors.iter().take(5) {
        report.notes.push(format!("housekeeping failure: {e}"));
    }
    tally.failed += errors.len() as u64;
    tally.incorrect += errors.len() as u64;
    drop(errors);

    let mut meta = crate::base_meta(args);
    crate::buffer_meta(&mut meta, inst.bm.config());
    meta.num("keys", KEYS as f64);
    meta.num("tuple_bytes", TUPLE as f64);
    meta.num("zipf_theta", THETA);
    meta.num("read_pct", READ_PCT);
    meta.num("housekeeping_period_s", HOUSEKEEPING_PERIOD.as_secs_f64());
    Ok(Run {
        report,
        meta,
        tally,
    })
}
