//! Closed-loop client harness: each client thread sends its next op only
//! after the previous one has reached its final outcome.

use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

use crate::meta::CpuTimes;
use crate::trace::Tracer;

/// Attempts per op before a retryable refusal counts as a failure (as the
/// repository's load generator does).
pub const MAX_ATTEMPTS: u32 = 4;

/// Length of one slice of a measured window. Host steal comes in bursts
/// of tens to hundreds of milliseconds, so slices this short let a window
/// that is disturbed for most of a second still yield calm slices.
pub const SLICE: Duration = Duration::from_millis(100);

/// Least share of a window's slices that its rates and percentiles are
/// taken over, when fewer than that are free of steal.
pub const MIN_CALM_SHARE: f64 = 0.1;

/// How an op ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Status {
    /// Completed and, for reads, verified.
    Ok,
    /// Still refused (conflict or shed) after [`MAX_ATTEMPTS`].
    Refused,
    /// A non-retryable error.
    Error(String),
    /// The value read back failed its check.
    Mismatch(String),
}

/// One finished client op.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Whether the op was a write.
    pub write: bool,
    /// First attempt to final outcome, when the op was timed.
    pub latency_ns: Option<u64>,
    /// Final outcome.
    pub status: Status,
    /// Attempts made (1 unless retried).
    pub attempts: u32,
    /// Attempts refused with a retryable error (conflict or shed).
    pub refusals: u32,
}

impl Outcome {
    /// An op that ended with `status` after `attempts` attempts; every
    /// attempt before the last was refused, and the last too if `status`
    /// is [`Status::Refused`].
    pub fn new(write: bool, latency_ns: Option<u64>, status: Status, attempts: u32) -> Self {
        Outcome {
            write,
            latency_ns,
            refusals: attempts - u32::from(status != Status::Refused),
            status,
            attempts,
        }
    }
}

/// How one attempt of an op ended.
#[derive(Debug)]
pub enum Attempt {
    /// The op completed.
    Done,
    /// A retryable refusal: an MVTO conflict or a shed.
    Refused,
    /// The op failed for good.
    Failed(Status),
}

/// Make `attempt` until it is not refused, at most [`MAX_ATTEMPTS`]
/// times, backing off before each retry as the repository's load
/// generator does: 25 ms, then four times as long each time. Returns the
/// final status and the attempts made.
pub fn with_retries(mut attempt: impl FnMut() -> Attempt) -> (Status, u32) {
    let mut n = 0;
    loop {
        n += 1;
        match attempt() {
            Attempt::Done => return (Status::Ok, n),
            Attempt::Failed(s) => return (s, n),
            Attempt::Refused if n == MAX_ATTEMPTS => return (Status::Refused, n),
            Attempt::Refused => std::thread::sleep(Duration::from_millis(25) * 4u32.pow(n - 1)),
        }
    }
}

/// A closed-loop client: one call is one op, retries included.
pub trait Client: Send {
    /// Run one op. `timed` asks for its latency; layer calls go through
    /// `tracer` so a traced op records them as spans.
    fn op(&mut self, timed: bool, tracer: &mut Tracer) -> Outcome;
}

/// Successful ops and their sampled latencies in one slice of a window.
#[derive(Debug, Default, Clone)]
pub struct Slice {
    /// Successful ops.
    pub ok: u64,
    /// Latencies of timed successful reads, ns.
    pub read_ns: Vec<u64>,
    /// Latencies of timed successful writes, ns.
    pub write_ns: Vec<u64>,
}

/// Per-client tallies of the measured ops.
#[derive(Debug, Default, Clone)]
pub struct Log {
    /// Successful reads.
    pub ok_reads: u64,
    /// Successful writes.
    pub ok_writes: u64,
    /// Ops refused after every attempt.
    pub refused: u64,
    /// Ops that met a non-retryable error.
    pub errors: u64,
    /// Reads whose value failed its check.
    pub mismatches: u64,
    /// Attempts made, retries included.
    pub attempts: u64,
    /// Attempts refused with a retryable error (conflicts and sheds).
    pub refusals: u64,
    /// Successful ops by the slice of the window they started in.
    pub slices: Vec<Slice>,
    /// The first few failures, for the run's output.
    pub problems: Vec<String>,
}

impl Log {
    fn new(slices: usize) -> Self {
        Log {
            slices: vec![Slice::default(); slices],
            ..Log::default()
        }
    }

    fn record(&mut self, out: Outcome, slice: usize) {
        self.attempts += u64::from(out.attempts);
        self.refusals += u64::from(out.refusals);
        let problem = match out.status {
            Status::Ok => {
                let s = &mut self.slices[slice];
                s.ok += 1;
                if out.write {
                    self.ok_writes += 1;
                    s.write_ns.extend(out.latency_ns);
                } else {
                    self.ok_reads += 1;
                    s.read_ns.extend(out.latency_ns);
                }
                return;
            }
            Status::Refused => {
                self.refused += 1;
                format!("refused after {MAX_ATTEMPTS} attempts")
            }
            Status::Error(e) => {
                self.errors += 1;
                e
            }
            Status::Mismatch(e) => {
                self.mismatches += 1;
                e
            }
        };
        if self.problems.len() < 5 {
            self.problems.push(problem);
        }
    }

    /// Fold another client's tallies into this one.
    pub fn merge(&mut self, other: Log) {
        self.ok_reads += other.ok_reads;
        self.ok_writes += other.ok_writes;
        self.refused += other.refused;
        self.errors += other.errors;
        self.mismatches += other.mismatches;
        self.attempts += other.attempts;
        self.refusals += other.refusals;
        for (mine, theirs) in self.slices.iter_mut().zip(other.slices) {
            mine.ok += theirs.ok;
            mine.read_ns.extend(theirs.read_ns);
            mine.write_ns.extend(theirs.write_ns);
        }
        self.problems.extend(other.problems);
        self.problems.truncate(5);
    }

    /// Ops completed successfully.
    pub fn ok(&self) -> u64 {
        self.ok_reads + self.ok_writes
    }

    /// Ops that failed for any reason.
    pub fn failed(&self) -> u64 {
        self.refused + self.errors + self.mismatches
    }

    /// Ops attempted (each counted once, however often retried).
    pub fn ops(&self) -> u64 {
        self.ok() + self.failed()
    }
}

/// Op counts over every window and check of a run.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Ops attempted, plus values checked after the windows.
    pub attempted: u64,
    /// Ops that failed for any reason, refusals included.
    pub failed: u64,
    /// Failures that mean a wrong answer: failed checks and
    /// non-retryable errors.
    pub incorrect: u64,
}

impl Tally {
    /// Count a window's ops.
    pub fn add(&mut self, log: &Log) {
        self.attempted += log.ops();
        self.failed += log.failed();
        self.incorrect += log.errors + log.mismatches;
    }

    /// Count `checked` values verified outside a window, `bad` of which
    /// failed.
    pub fn add_checks(&mut self, checked: u64, bad: u64) {
        self.attempted += checked;
        self.failed += bad;
        self.incorrect += bad;
    }
}

/// Shape of one measured window.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Unmeasured lead-in that lets caches fill.
    pub warmup: Duration,
    /// Measured time.
    pub window: Duration,
    /// Equal slices the window is cut into; rates and percentiles are
    /// taken over the calmest of them (see [`Window::calm_slices`]), so a
    /// burst of interference from the host does not move the result.
    pub slices: usize,
    /// Time one op in this many (timing every op would cost more than a
    /// buffer hit itself).
    pub time_every: u64,
    /// Record spans during the window.
    pub traced: bool,
}

/// What one window measured.
#[derive(Debug)]
pub struct Window<S> {
    /// Merged tallies of every client.
    pub log: Log,
    /// Measured wall time.
    pub elapsed: Duration,
    /// Measured wall time of each slice.
    pub slice_secs: Vec<f64>,
    /// Share of CPU time the hypervisor stole during each slice.
    pub slice_steal: Vec<f64>,
    /// Layer counters before the window.
    pub before: S,
    /// Layer counters after the window.
    pub after: S,
}

impl<S> Window<S> {
    /// Successful ops per second over the whole window.
    pub fn throughput(&self) -> f64 {
        self.log.ok() as f64 / self.elapsed.as_secs_f64()
    }

    /// The calm slices: those in which the hypervisor stole no CPU time
    /// (`/proc/stat` counts steal in 10-ms ticks), or, when fewer than
    /// [`MIN_CALM_SHARE`] of the slices are free of steal, that share
    /// (rounded up) with the least steal, earlier slices first on ties.
    /// On a shared host a neighbour's load can take a quarter of the CPU
    /// for seconds at a time; a slice it disturbs measures the neighbour.
    pub fn calm_slices(&self) -> Vec<usize> {
        let steal = &self.slice_steal;
        let mut idx: Vec<usize> = (0..steal.len()).collect();
        idx.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]).then(a.cmp(&b)));
        let least = ((idx.len() as f64 * MIN_CALM_SHARE).ceil() as usize).max(1);
        let free = idx.iter().take_while(|&&i| steal[i] == 0.0).count();
        idx.truncate(free.max(least));
        idx.sort_unstable();
        idx
    }

    /// Successful ops per second over the calm slices together.
    pub fn calm_throughput(&self) -> f64 {
        let calm = self.calm_slices();
        let ok: u64 = calm.iter().map(|&i| self.log.slices[i].ok).sum();
        let secs: f64 = calm.iter().map(|&i| self.slice_secs[i]).sum();
        ok as f64 / secs
    }
}

/// The windows of one run, measured one after another on different
/// instances of a workload, as one window of all their slices. The
/// counters of each stay with its own window.
pub fn chain<S>(windows: Vec<Window<S>>) -> Window<()> {
    let mut all = Window {
        log: Log::default(),
        elapsed: Duration::ZERO,
        slice_secs: Vec::new(),
        slice_steal: Vec::new(),
        before: (),
        after: (),
    };
    for mut w in windows {
        let slices = std::mem::take(&mut w.log.slices);
        all.log.merge(w.log);
        all.log.slices.extend(slices);
        all.elapsed += w.elapsed;
        all.slice_secs.extend(w.slice_secs);
        all.slice_steal.extend(w.slice_steal);
    }
    all
}

const WARMUP: u32 = 0;
const STOP: u32 = u32::MAX;

/// Run `clients` closed-loop, one thread each, through a warm-up and a
/// measured window. `snapshot` reads the layers' counters just before and
/// just after the window.
pub fn run<C: Client, S>(
    clients: &mut [C],
    tracers: &mut [Tracer],
    plan: Plan,
    snapshot: impl Fn() -> S,
) -> Window<S> {
    assert_eq!(clients.len(), tracers.len(), "one tracer per client");
    assert!(plan.slices > 0, "a window has at least one slice");
    // WARMUP, then slice i (1-based) while measuring, then STOP.
    let phase = AtomicU32::new(WARMUP);
    let (logs, before, elapsed, slice_secs, slice_steal) = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(tracers.iter_mut())
            .map(|(client, tracer)| {
                let phase = &phase;
                scope.spawn(move || {
                    let mut log = Log::new(plan.slices);
                    let mut n = 0u64;
                    loop {
                        let p = phase.load(Ordering::Acquire);
                        if p == STOP {
                            break;
                        }
                        let measuring = p != WARMUP;
                        tracer.set_enabled(plan.traced && measuring);
                        n += 1;
                        let out = client.op(measuring && n.is_multiple_of(plan.time_every), tracer);
                        if measuring {
                            log.record(out, p as usize - 1);
                        }
                    }
                    tracer.set_enabled(false);
                    log
                })
            })
            .collect();
        std::thread::sleep(plan.warmup);
        let before = snapshot();
        let start = Instant::now();
        let mut slice_secs = Vec::with_capacity(plan.slices);
        let mut slice_steal = Vec::with_capacity(plan.slices);
        let (mut edge, mut cpu) = (start, CpuTimes::now());
        for i in 1..=plan.slices {
            phase.store(i as u32, Ordering::Release);
            let end = start + plan.window.mul_f64(i as f64 / plan.slices as f64);
            std::thread::sleep(end.saturating_duration_since(Instant::now()));
            let (now, cpu_now) = (Instant::now(), CpuTimes::now());
            slice_secs.push((now - edge).as_secs_f64());
            slice_steal.push(cpu_now.steal_ratio_since(&cpu));
            (edge, cpu) = (now, cpu_now);
        }
        phase.store(STOP, Ordering::Release);
        let elapsed = start.elapsed();
        let logs: Vec<Log> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (logs, before, elapsed, slice_secs, slice_steal)
    });
    let after = snapshot();
    let mut log = Log::new(plan.slices);
    for l in logs {
        log.merge(l);
    }
    Window {
        log,
        elapsed,
        slice_secs,
        slice_steal,
        before,
        after,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(steal: &[f64]) -> Window<()> {
        let mut log = Log::new(steal.len());
        for (i, s) in log.slices.iter_mut().enumerate() {
            s.ok = 10 * (i as u64 + 1);
        }
        Window {
            log,
            elapsed: Duration::from_secs_f64(0.1 * steal.len() as f64),
            slice_secs: vec![0.1; steal.len()],
            slice_steal: steal.to_vec(),
            before: (),
            after: (),
        }
    }

    #[test]
    fn calm_slices_are_the_steal_free_ones() {
        let w = window(&[0.0, 0.05, 0.0, 0.0, 0.2, 0.0, 0.0, 0.0, 0.0, 0.0]);
        assert_eq!(w.calm_slices(), vec![0, 2, 3, 5, 6, 7, 8, 9]);
        // Slices 1 and 5 hold 20 + 60 ops in 0.2 s.
        let w = window(&[0.1, 0.0, 0.1, 0.1, 0.1, 0.0, 0.1, 0.1, 0.1, 0.1]);
        assert_eq!(w.calm_throughput(), 400.0);
    }

    #[test]
    fn too_few_steal_free_slices_fall_back_to_the_least_stolen_share() {
        let mut steal = vec![0.3; 20];
        steal[7] = 0.05;
        steal[3] = 0.1;
        steal[12] = 0.1;
        // A tenth of 20 is 2: slice 7, then slice 3 before 12 on the tie.
        assert_eq!(window(&steal).calm_slices(), vec![3, 7]);
        // At least one slice, however short the window.
        assert_eq!(window(&[0.2, 0.1]).calm_slices(), vec![1]);
    }
}
