//! `kv-serve`: the TCP server as shipped, in-process, with two workers and
//! one tenant over 100 000 keys of 100-B values. Two clients, one
//! connection each, send 95 % GET / 5 % PUT at Zipf θ 0.99. Request
//! handling dominates (framing, CRC, admission, the reader-to-worker
//! handoff); nearly every fetch hits DRAM.

use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::Rng;
use spitfire_obs::HistogramSnapshot;
use spitfire_server::{
    decode_reply, decode_value, encode_request, encode_value, read_frame, Command, Reply, Request,
    Server, ServerConfig,
};
use spitfire_wkld::ScrambledZipf;

use crate::db::{self, DbCounters};
use crate::harness::{self, Attempt, Client, Outcome, Status, Tally};
use crate::report::{self, ratio, Report};
use crate::trace::{self, Tracer};
use crate::{check, stats, Args, Run, Setup};

const TABLE: u32 = 0;
const KEYS: u64 = 100_000;
const VALUE: usize = 100;
/// The server stores a value as `[len u16][value]`.
const TUPLE: usize = VALUE + 2;
const THETA: f64 = 0.99;
const READ_PCT: u32 = 95;
const WORKERS: usize = 2;
/// Lead-in before the measured window.
const WARMUP: Duration = Duration::from_secs(2);
/// Ops per traced root span.
const TRACE_EVERY: u64 = 4;
/// Label of the server's per-tenant enqueue-to-reply histogram.
const HANDLE_HIST: &str = "srv_tenant0";

fn build() -> Result<Server, String> {
    let config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: WORKERS,
        page_size: 16 * 1024,
        dram_bytes: 64 << 20,
        nvm_bytes: 128 << 20,
        value_bytes: VALUE,
        preload_keys: 0,
        ..ServerConfig::default()
    };
    let server = Server::start(config).map_err(|e| e.to_string())?;
    // The server's own preload writes empty values; load self-checking
    // ones the same way.
    db::load(server.database(), TABLE, KEYS, VALUE, |v| {
        encode_value(v, TUPLE)
    })?;
    Ok(server)
}

/// One blocking request/reply exchange on `stream`.
fn call(stream: &mut TcpStream, request_id: u64, cmd: Command) -> Result<Reply, String> {
    let frame = encode_request(&Request {
        tenant: TABLE,
        request_id,
        cmd,
    });
    stream.write_all(&frame).map_err(|e| format!("send: {e}"))?;
    let raw = read_frame(stream)
        .map_err(|e| format!("receive: {e}"))?
        .ok_or("server closed the connection")?;
    let reply = decode_reply(&raw).map_err(|e| format!("decode: {e:?}"))?;
    if reply.request_id != request_id {
        return Err(format!(
            "reply to request {} arrived for {request_id}",
            reply.request_id
        ));
    }
    Ok(reply.reply)
}

struct KvClient<'a> {
    stream: TcpStream,
    rng: SmallRng,
    zipf: &'a ScrambledZipf,
    offset: u64,
    id: u64,
    writes: u64,
    request_id: u64,
    value: Vec<u8>,
}

impl KvClient<'_> {
    fn attempt(&mut self, key: u64, write: bool, tracer: &mut Tracer) -> Attempt {
        self.request_id += 1;
        let cmd = if write {
            Command::Put {
                key,
                value: self.value.clone(),
            }
        } else {
            Command::Get { key }
        };
        let (stream, id) = (&mut self.stream, self.request_id);
        let reply = match tracer.span("server.rtt", || call(stream, id, cmd)) {
            Ok(r) => r,
            Err(e) => return Attempt::Failed(Status::Error(e)),
        };
        match reply {
            Reply::Ok if write => Attempt::Done,
            Reply::Value(v) if !write => match check::verify(key, &v, VALUE) {
                Ok(_) => Attempt::Done,
                Err(m) => Attempt::Failed(Status::Mismatch(format!("key {key}: {m:?}"))),
            },
            Reply::Error {
                retryable: true, ..
            } => Attempt::Refused,
            Reply::Error { code, message, .. } => {
                Attempt::Failed(Status::Error(format!("key {key}: {code:?}: {message}")))
            }
            other => Attempt::Failed(Status::Error(format!(
                "key {key}: unexpected reply {other:?}"
            ))),
        }
    }
}

impl Client for KvClient<'_> {
    fn op(&mut self, timed: bool, tracer: &mut Tracer) -> Outcome {
        let key = (self.zipf.sample(&mut self.rng) + self.offset) % KEYS;
        let write = self.rng.gen_range(0..100u32) >= READ_PCT;
        if write {
            self.writes += 1;
            check::encode(key, (self.id << 48) | self.writes, &mut self.value);
        }
        tracer.begin_op(if write { "op.write" } else { "op.read" });
        let t0 = timed.then(Instant::now);
        let (status, attempts) = harness::with_retries(|| self.attempt(key, write, tracer));
        let latency_ns = t0.map(|t| t.elapsed().as_nanos() as u64);
        tracer.end_op();
        Outcome::new(write, latency_ns, status, attempts)
    }
}

/// The fields of a STATS reply the benchmark uses.
#[derive(Debug, Clone, Copy, Default)]
struct ServerStats {
    protocol_errors: u64,
    commits: u64,
    aborts: u64,
    admitted: u64,
    shed: u64,
}

impl ServerStats {
    fn fetch(addr: SocketAddr) -> Result<Self, String> {
        let mut s = TcpStream::connect(addr).map_err(|e| format!("stats connect: {e}"))?;
        let Reply::Stats(json) = call(&mut s, u64::MAX, Command::Stats)? else {
            return Err("STATS got no stats reply".into());
        };
        let field = |name: &str| -> Result<u64, String> {
            let pat = format!("\"{name}\": ");
            let at = json
                .find(&pat)
                .ok_or_else(|| format!("STATS lacks {name}"))?
                + pat.len();
            let digits: String = json[at..]
                .chars()
                .take_while(char::is_ascii_digit)
                .collect();
            digits
                .parse()
                .map_err(|_| format!("STATS {name} is not a count"))
        };
        Ok(ServerStats {
            protocol_errors: field("protocol_errors")?,
            commits: field("commits")?,
            aborts: field("aborts")?,
            admitted: field("admitted")?,
            shed: field("shed_queue")? + field("shed_pressure")? + field("shed_quota")?,
        })
    }
}

/// Counters read around a window.
struct Counters {
    db: DbCounters,
    server: Result<ServerStats, String>,
    handle: HistogramSnapshot,
}

impl Counters {
    fn read(server: &Server) -> Self {
        Counters {
            db: DbCounters::read(server.database()),
            server: ServerStats::fetch(server.local_addr()),
            handle: spitfire_obs::labeled_histogram(HANDLE_HIST).snapshot(),
        }
    }
}

fn connect<'a>(
    server: &Server,
    zipf: &'a ScrambledZipf,
    args: &Args,
) -> Result<Vec<KvClient<'a>>, String> {
    let offset = args.hot_offset(KEYS);
    let mut clients = Vec::with_capacity(crate::CLIENTS);
    for id in 0..crate::CLIENTS as u64 {
        let stream =
            TcpStream::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        clients.push(KvClient {
            stream,
            rng: args.client_rng(id),
            zipf,
            offset,
            id,
            writes: 0,
            request_id: 0,
            value: vec![0u8; VALUE],
        });
    }
    Ok(clients)
}

/// Run the workload. Every server set up is measured, each for an equal
/// share of the window, as on `page-hot`.
pub fn run(args: &Args) -> Result<Run, String> {
    let zipf = ScrambledZipf::new(KEYS, THETA);
    let mut tally = Tally::default();
    let mut report = Report::default();
    let mut late = 0;
    let (
        Setup {
            value: server,
            seconds: setup_s,
        },
        measured,
    ) = crate::measure_each_setup(build, |server, last| {
        let mut clients = connect(server, &zipf, args)?;
        let epoch = Instant::now();
        let mut tracers: Vec<Tracer> = (0..clients.len() as u64)
            .map(|t| Tracer::new(epoch, t, TRACE_EVERY))
            .collect();
        let snapshot = || Counters::read(server);
        let plan = args.plan(WARMUP, 1, crate::SETUPS);
        let window = harness::run(&mut clients, &mut tracers, plan, snapshot);
        tally.add(&window.log);
        let mut traced = None;
        if last && args.trace {
            let t = harness::run(&mut clients, &mut tracers, args.traced_plan(1), snapshot);
            tally.add(&t.log);
            let spans: Vec<_> = tracers.iter_mut().flat_map(Tracer::take).collect();
            traced = Some((t, spans));
        }
        drop(clients);
        let bad = db::verify_all(
            server.database(),
            TABLE,
            KEYS,
            VALUE,
            decode_value,
            &mut report,
        );
        tally.add_checks(KEYS, bad);
        late += bad;
        Ok((window, traced))
    })?;
    let (mut windows, traced): (Vec<_>, Vec<_>) = measured.into_iter().unzip();
    // Counters and spans come from the last server.
    let window = windows.pop().expect("SETUPS > 0");
    if let Some((traced, spans)) = traced.into_iter().flatten().next() {
        crate::analyse_spans(
            &mut report,
            &spans,
            window.calm_throughput(),
            traced.calm_throughput(),
        )?;
        let handle = traced.after.handle.delta(&traced.before.handle);
        let q = |p: f64| handle.quantile(p).map(|ns| ns as f64 / 1e3);
        match (q(0.5), q(0.99)) {
            (Some(p50), Some(p99)) => {
                report.set("server.handle_p50_us", p50);
                report.set("server.handle_p99_us", p99);
                report.notes.push(format!(
                    "server.handle_*: {HANDLE_HIST} histogram, {} samples",
                    handle.count
                ));
                let mut rtt = trace::durations(&spans, "server.rtt", None);
                if let Some(q) = stats::quantile(&mut rtt, 50.0) {
                    report.set("server.transport_p50_us", q.value as f64 / 1e3 - p50);
                }
            }
            _ => report.absent("server.handle", "the server recorded no request"),
        }
    }

    report.set("setup_s", setup_s);
    let (b, a) = (&window.before, &window.after);
    let ops = window.log.ops();
    db::set_counter_metrics(&mut report, &b.db, &a.db, ops, window.log.ok_writes);
    let bm = server.buffer_manager();
    let allocated = bm.page_count() * bm.page_size() as u64;
    report.set(
        "space_amp",
        allocated as f64 / (KEYS as usize * TUPLE) as f64,
    );
    match (&b.server, &a.server) {
        (Ok(b), Ok(a)) => {
            let shed = a.shed - b.shed;
            report.set(
                "server.shed_ratio",
                ratio(shed as f64, (a.admitted - b.admitted + shed) as f64),
            );
            report.set(
                "server.protocol_errors",
                (a.protocol_errors - b.protocol_errors) as f64,
            );
            let aborts = a.aborts - b.aborts;
            report.set(
                "txn.conflict_ratio",
                ratio(aborts as f64, (a.commits - b.commits + aborts) as f64),
            );
        }
        (Err(e), _) | (_, Err(e)) => return Err(e.clone()),
    }
    windows.push(window);
    report::set_client_metrics(&mut report, &harness::chain(windows), late);
    let inside = "runs inside the server; only the wire round trip is visible from outside";
    report.absent("txn.read", format!("txn.read_into {inside}"));
    report.absent("txn.update", format!("txn.update {inside}"));
    report.absent("txn.commit", format!("txn.commit {inside}"));
    report.absent("txn.vacuum", "the server runs as shipped, with no vacuum");
    report.absent(
        "txn.checkpoint",
        "the server runs as shipped, with no checkpoint",
    );
    for prefix in ["core.fetch_", "core.page_copy", "core.unpin"] {
        report.absent(prefix, format!("the buffer manager {inside}"));
    }

    let mut meta = crate::base_meta(args);
    crate::buffer_meta(&mut meta, bm.config());
    meta.num("keys", KEYS as f64);
    meta.num("value_bytes", VALUE as f64);
    meta.num("zipf_theta", THETA);
    meta.num("read_pct", READ_PCT);
    meta.num("server_workers", WORKERS as f64);
    meta.text("transport", "tcp loopback, one connection per client");
    meta.num("instances_measured", crate::SETUPS as f64);
    Ok(Run {
        report,
        meta,
        tally,
    })
}
