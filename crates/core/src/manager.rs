//! The Spitfire buffer manager (paper §5).
//!
//! One [`BufferManager`] owns up to two buffer pools (DRAM and NVM) over an
//! SSD, a unified mapping table of shared page descriptors (Figure 4), the
//! CLOCK replacement state per pool, and the probabilistic data migration
//! policy (§3). See the crate docs for the full data-flow picture.
//!
//! # Concurrency protocol
//!
//! All copy-state transitions take the descriptor mutex, which is never
//! held across device I/O (except for fine-grained granule loads, whose
//! I/O is sub-microsecond NVM/DRAM traffic) — the non-blocking equivalent
//! of the paper's per-tier migration latches. Two invariants make this
//! deadlock-free:
//!
//! * a thread never holds two descriptor mutexes at once (evictions use
//!   `try_lock` and skip on failure);
//! * migrations only start when the source copy has no outstanding pins,
//!   so no wait ever depends on a guard held by another operation.
//!
//! Layered *above* the mutex protocol is the optimistic hit fast path
//! (paper §5.2, DESIGN.md "Lock-free hit path"): a fetch of a stably
//! resident page pins it through the descriptor's
//! [`spitfire_sync::PinWord`] with a single CAS and never touches the
//! mutex. The word proves residency to readers, the mutex serializes
//! writers, and a reader that loses a race restarts into the mutex path.
//!
//! Each page transition has exactly one protocol, chosen by the layout of
//! the copy it moves (DESIGN.md "Shadow-copy migrations"):
//!
//! | copy | promote / dirty evict / flush |
//! |---|---|
//! | full frame | shadow copy: the source stays `Resident` with its word open while the bytes move; `settle_shadow` commits only if no write overlapped the copy and every pin drained, else the copy is discarded and the source stays authoritative |
//! | fine / mini (DRAM) | granule protocol: close the source's word, mark the copies `Busy`, move granules under the mutex (these copies never open a pin word of their own) |
//! | clean DRAM copy | discarded on eviction: no I/O, so no copy window to shadow |
//! | NVM copy shadowed by DRAM | `Busy` claim: its word is already closed and readers use the DRAM copy, so closing it stalls nobody |

use spitfire_sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::cell::{Cell, RefCell};
use std::sync::Arc;

use spitfire_device::{
    AccessPattern, DeviceError, DeviceStats, FaultInjector, NvmDevice, SsdDevice,
};
use spitfire_obs::{self as obs, Op};
use spitfire_sync::lock::RwLock;
use spitfire_sync::{AdmissionQueue, ConcurrentMap, PinAttempt, ShadowOutcome, ShadowToken};

use crate::background::{CycleStats, MaintSignal, Maintenance};
use crate::config::{BufferManagerConfig, Hierarchy};
use crate::descriptor::{CopyState, FrameRef, PageState, SharedPageDesc};
use crate::error::BufferError;
use crate::fgpage::MiniSlabs;
use crate::guard::{GuardKind, PageGuard, ReadGuard, WriteGuard};
use crate::io::{retry_device_io, retry_device_io_n, IO_RETRY_LIMIT, MAINT_RETRY_LIMIT};
use crate::metrics::{inclusivity_ratio, BufferMetrics, MetricsSnapshot, ShadowPath};
use crate::policy::{MigrationPolicy, PolicyCell};
use crate::pool::Pool;
use crate::types::{AccessIntent, FrameId, MigrationPath, PageId, Tier};
use crate::Result;

mod fetch;
mod maintenance;
mod recovery;
mod transition;

pub use maintenance::MemoryPressure;

/// Global id source distinguishing managers in per-thread caches.
static NEXT_MGR_ID: AtomicU64 = AtomicU64::new(1);

/// A claimed NVM copy awaiting SSD write-back: descriptor, source frame,
/// and the shadow token (`None` for a `Busy` claim).
type NvmClaim = (Arc<SharedPageDesc>, FrameId, Option<ShadowToken>);

/// Multi-threaded three-tier buffer manager.
pub struct BufferManager {
    config: BufferManagerConfig,
    pub(crate) mapping: ConcurrentMap<u64, Arc<SharedPageDesc>>,
    /// Tier-1 pool: DRAM, or the memory-mode composite device.
    tier1: Option<Pool>,
    /// Tier-2 pool: app-direct NVM.
    nvm: Option<Pool>,
    ssd: SsdDevice,
    policy: PolicyCell,
    admission: Option<AdmissionQueue>,
    pub(crate) metrics: Arc<BufferMetrics>,
    next_pid: AtomicU64,
    /// This manager's id in per-thread caches and RNG streams.
    mgr_id: u64,
    /// Bumped when the mapping table is discarded (`simulate_crash`) so
    /// per-thread descriptor caches drop entries for dead descriptors.
    cache_epoch: AtomicU64,
    /// Ordinal handed to each thread's policy RNG on its first draw from
    /// this manager (seeds stay deterministic per (seed, ordinal)).
    rng_threads: AtomicU64,
    pub(crate) mini: Option<MiniSlabs>,
    /// Wake-up signal shared with an attached [`Maintenance`] service;
    /// `None` until one is created.
    maint: RwLock<Option<Arc<MaintSignal>>>,
    /// True while maintenance workers are running — the allocation path
    /// checks this flag (relaxed) before paying for watermark math.
    maint_active: AtomicBool,
    /// Checkpoint dirty-epoch tracking: the current epoch number, bumped by
    /// [`BufferManager::drain_dirty_epoch`].
    dirty_epoch: AtomicU64,
    /// Pages whose content changed since the last epoch drain. The
    /// per-descriptor `ckpt_epoch` hint keeps repeat writers off this
    /// mutex; an incremental checkpoint drains it to learn which page
    /// images to copy.
    dirty_since: parking_lot::Mutex<std::collections::BTreeSet<u64>>,
}

impl BufferManager {
    /// Build a buffer manager from `config`.
    pub fn new(config: BufferManagerConfig) -> Result<Self> {
        config.validate()?;
        let scale = config.time_scale;
        let page = config.page_size;
        let metrics = Arc::new(BufferMetrics::new());
        let (tier1, nvm) = if config.memory_mode {
            (
                Some(Pool::memory_mode(
                    config.nvm_capacity,
                    config.dram_capacity,
                    page,
                    scale,
                    config.dram_policy,
                    Arc::clone(&metrics),
                )),
                None,
            )
        } else {
            let t1 = (config.dram_capacity > 0).then(|| {
                Pool::dram(
                    config.dram_capacity,
                    page,
                    scale,
                    config.dram_policy,
                    Arc::clone(&metrics),
                )
            });
            let t2 = (config.nvm_capacity > 0).then(|| {
                Pool::nvm(
                    config.nvm_capacity,
                    page,
                    scale,
                    config.persistence,
                    config.nvm_policy,
                    Arc::clone(&metrics),
                )
            });
            (t1, t2)
        };
        let admission = nvm.as_ref().map(|pool| {
            let cap = config
                .admission_queue_capacity
                .unwrap_or(pool.n_frames() / 2)
                .max(1);
            AdmissionQueue::new(cap)
        });
        let mini = config
            .mini_pages
            .then(|| MiniSlabs::new(page, config.fine_grained.expect("validated")));
        let ssd = SsdDevice::with_backend(page, scale, config.persistence, &config.ssd_backend)
            .map_err(BufferError::Device)?;
        Ok(BufferManager {
            mapping: ConcurrentMap::new(),
            tier1,
            nvm,
            ssd,
            policy: PolicyCell::new(config.policy),
            admission,
            metrics,
            next_pid: AtomicU64::new(0),
            // relaxed: id allocation only needs uniqueness, which the RMW
            // gives regardless of ordering.
            mgr_id: NEXT_MGR_ID.fetch_add(1, Ordering::Relaxed),
            cache_epoch: AtomicU64::new(0),
            rng_threads: AtomicU64::new(0),
            mini,
            maint: RwLock::new(None),
            maint_active: AtomicBool::new(false),
            dirty_epoch: AtomicU64::new(0),
            dirty_since: parking_lot::Mutex::new(std::collections::BTreeSet::new()),
            config,
        })
    }

    /// The configuration this manager was built with.
    pub fn config(&self) -> &BufferManagerConfig {
        &self.config
    }

    /// The storage hierarchy in effect.
    pub fn hierarchy(&self) -> Hierarchy {
        self.config.hierarchy()
    }

    /// Page size in bytes.
    pub fn page_size(&self) -> usize {
        self.config.page_size
    }

    /// Number of pages allocated so far.
    pub fn page_count(&self) -> u64 {
        self.next_pid.load(Ordering::Acquire)
    }

    /// The active migration policy.
    pub fn policy(&self) -> MigrationPolicy {
        self.policy.load()
    }

    /// Administrative handle grouping every runtime mutator — see
    /// [`Admin`].
    pub fn admin(&self) -> Admin<'_> {
        Admin { bm: self }
    }

    /// Buffer metrics counters.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Reset buffer metrics and device counters (between experiment
    /// phases).
    pub fn reset_metrics(&self) {
        self.metrics.reset();
        if let Some(p) = &self.tier1 {
            p.device_stats().reset();
        }
        if let Some(p) = &self.nvm {
            p.device_stats().reset();
        }
        self.ssd.stats().reset();
    }

    /// Device counters for `tier`, if the tier exists in this hierarchy.
    pub fn device_stats(&self, tier: Tier) -> Option<Arc<DeviceStats>> {
        match tier {
            Tier::Dram => self.tier1.as_ref().map(Pool::device_stats),
            Tier::Nvm => self.nvm.as_ref().map(Pool::device_stats),
            Tier::Ssd => Some(self.ssd.stats()),
        }
    }

    /// Number of page frames in the DRAM (tier-1) pool.
    pub fn dram_frames(&self) -> usize {
        self.tier1.as_ref().map_or(0, Pool::n_frames)
    }

    /// Number of page frames in the NVM pool.
    pub fn nvm_frames(&self) -> usize {
        self.nvm.as_ref().map_or(0, Pool::n_frames)
    }

    /// Direct handle to the NVM device (recovery tests, WAL sharing).
    pub fn nvm_device(&self) -> Option<&NvmDevice> {
        self.nvm.as_ref().and_then(Pool::nvm_device)
    }

    /// Memory-mode cache hit/miss counters, when running in memory mode.
    pub fn memory_mode_cache(&self) -> Option<(u64, u64)> {
        self.tier1
            .as_ref()
            .and_then(Pool::memory_mode_device)
            .map(|d| (d.cache_hits(), d.cache_misses()))
    }

    pub(crate) fn tier1_pool(&self) -> &Pool {
        self.tier1
            .as_ref()
            .expect("tier-1 pool exists for this guard")
    }

    pub(crate) fn nvm_pool(&self) -> &Pool {
        self.nvm.as_ref().expect("NVM pool exists for this guard")
    }

    /// Cheap uniform draw from a per-thread xorshift64* stream — no
    /// shared cache line on the hot path (the old shared splitmix64
    /// counter was a guaranteed cross-core bounce per draw).
    ///
    /// Each (manager, thread) pair gets an independent stream seeded from
    /// `config.seed` and the order in which threads first draw from this
    /// manager. A fresh manager re-issues ordinals from zero, so a
    /// single-threaded run (the chaos explorer) sees an identical draw
    /// sequence across managers built with the same seed — the
    /// determinism `identical_configs_yield_identical_verdicts` relies
    /// on.
    fn draw(&self) -> u32 {
        thread_local! {
            /// (owning manager id, xorshift state).
            static POLICY_RNG: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
        }
        POLICY_RNG.with(|c| {
            let (id, mut s) = c.get();
            if id != self.mgr_id {
                // relaxed: per-thread RNG seed ordinal; only uniqueness
                // matters, not ordering against other memory.
                let ord = self.rng_threads.fetch_add(1, Ordering::Relaxed);
                // `| 1` keeps the xorshift state non-zero forever.
                s = splitmix64(self.config.seed ^ splitmix64(ord)) | 1;
            }
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            c.set((self.mgr_id, s));
            (s.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 32) as u32
        })
    }

    /// Allocate a fresh zeroed page. The page initially resides on SSD
    /// (paper §1: "initially, a newly-allocated page resides on SSD").
    pub fn allocate_page(&self) -> Result<PageId> {
        let pid = PageId(self.next_pid.fetch_add(1, Ordering::AcqRel));
        let zeros = vec![0u8; self.config.page_size];
        retry_device_io(&self.metrics, "page allocation", || {
            self.ssd.write_page(pid.0, &zeros)
        })?;
        Ok(pid)
    }

    /// Force an fsync barrier on the SSD: everything written so far
    /// survives [`BufferManager::simulate_crash`].
    pub fn sync_ssd(&self) -> Result<()> {
        retry_device_io(&self.metrics, "ssd sync", || self.ssd.sync())
    }

    /// Read `pid`'s SSD image into `buf`, retrying transient faults. A page
    /// whose backing vanished in a crash (allocated but never synced) reads
    /// as zeros — the durable content of a freshly allocated page.
    fn read_ssd_page(&self, pid: PageId, buf: &mut [u8]) -> Result<()> {
        match retry_device_io(&self.metrics, "ssd read", || self.ssd.read_page(pid.0, buf)) {
            Ok(()) => Ok(()),
            Err(BufferError::Device(DeviceError::PageNotFound(_))) => {
                buf.fill(0);
                Ok(())
            }
            Err(e) => Err(e),
        }
    }

    fn descriptor(&self, pid: PageId) -> Result<Arc<SharedPageDesc>> {
        // relaxed: suffices for this bounds check — a caller can only hold
        // a valid pid through some channel that happens-after the
        // `fetch_add` in `allocate_page` (a return value, a message, a
        // page read), and that edge makes the incremented counter visible
        // to a relaxed load too. Acquire bought nothing — there is no
        // release store this load needs to pair with for correctness —
        // and the optimistic fast path skips the check entirely:
        // presence in the mapping table proves the pid was validated.
        if pid.0 >= self.next_pid.load(Ordering::Relaxed) {
            return Err(BufferError::UnknownPage(pid));
        }
        Ok(self
            .mapping
            .get_or_insert_with(pid.0, || Arc::new(SharedPageDesc::new(pid))))
    }

    /// Whether `pid` currently has a DRAM-resident copy. Non-blocking:
    /// returns `false` when the descriptor mutex is contended, so this is
    /// a monitoring probe, not a synchronization primitive.
    pub fn is_dram_resident(&self, pid: PageId) -> bool {
        self.mapping
            .get(&pid.0)
            .is_some_and(|desc| desc.state.try_lock().is_some_and(|st| st.dram.is_some()))
    }

    /// The inclusivity ratio of the DRAM and NVM buffers (paper §3.3,
    /// Table 2): pages resident in both, over pages resident in either.
    pub fn inclusivity(&self) -> f64 {
        let mut both = 0usize;
        let mut either = 0usize;
        self.mapping.for_each(|_, desc| {
            if let Some(st) = desc.state.try_lock() {
                let d = st.dram.is_some();
                let n = st.nvm.is_some();
                if d || n {
                    either += 1;
                }
                if d && n {
                    both += 1;
                }
            }
        });
        inclusivity_ratio(both, either)
    }

    /// Number of pages currently resident in (DRAM, NVM).
    pub fn resident_pages(&self) -> (usize, usize) {
        let mut dram = 0;
        let mut nvm = 0;
        self.mapping.for_each(|_, desc| {
            if let Some(st) = desc.state.try_lock() {
                dram += usize::from(st.dram.is_some());
                nvm += usize::from(st.nvm.is_some());
            }
        });
        (dram, nvm)
    }

    /// Frames currently occupied in the (DRAM, NVM) pools.
    pub fn occupied_frames(&self) -> (usize, usize) {
        (
            self.tier1.as_ref().map_or(0, Pool::occupied_frames),
            self.nvm.as_ref().map_or(0, Pool::occupied_frames),
        )
    }

    /// Number of dirty resident pages in (DRAM, NVM).
    pub fn dirty_pages(&self) -> (usize, usize) {
        fn is_dirty(slot: &Option<CopyState>) -> bool {
            matches!(
                slot,
                Some(CopyState::Resident { dirty: true, .. } | CopyState::Busy { dirty: true, .. })
            )
        }
        let mut dram = 0;
        let mut nvm = 0;
        self.mapping.for_each(|_, desc| {
            if let Some(st) = desc.state.try_lock() {
                dram += usize::from(is_dirty(&st.dram));
                nvm += usize::from(is_dirty(&st.nvm));
            }
        });
        (dram, nvm)
    }

    /// Current occupancy of the NVM admission queue (0 without an NVM tier).
    pub fn admission_queue_len(&self) -> usize {
        self.admission.as_ref().map_or(0, AdmissionQueue::len)
    }

    /// Register this manager's state as named observability gauges (tier
    /// occupancy, dirty pages, admission-queue length, policy vector, device
    /// byte counters). Gauges hold a [`std::sync::Weak`] and disappear from
    /// the registry once the manager is dropped.
    pub fn register_obs_gauges(self: &Arc<Self>) {
        fn gauge(bm: &Arc<BufferManager>, name: &'static str, f: fn(&BufferManager) -> f64) {
            let w = Arc::downgrade(bm);
            obs::register_gauge(name, move || w.upgrade().map(|bm| f(&bm)));
        }
        gauge(self, "dram_frames_total", |bm| bm.dram_frames() as f64);
        gauge(self, "nvm_frames_total", |bm| bm.nvm_frames() as f64);
        gauge(self, "dram_occupied_frames", |bm| {
            bm.occupied_frames().0 as f64
        });
        gauge(self, "nvm_occupied_frames", |bm| {
            bm.occupied_frames().1 as f64
        });
        gauge(self, "dram_dirty_pages", |bm| bm.dirty_pages().0 as f64);
        gauge(self, "nvm_dirty_pages", |bm| bm.dirty_pages().1 as f64);
        gauge(self, "admission_queue_len", |bm| {
            bm.admission_queue_len() as f64
        });
        gauge(self, "policy_dr", |bm| bm.policy().dr);
        gauge(self, "policy_dw", |bm| bm.policy().dw);
        gauge(self, "policy_nr", |bm| bm.policy().nr);
        gauge(self, "policy_nw", |bm| bm.policy().nw);
        gauge(self, "buffer_hit_ratio", |bm| {
            bm.metrics().buffer_hit_ratio()
        });
        gauge(self, "dram_free_frames", |bm| bm.free_frames().0 as f64);
        gauge(self, "nvm_free_frames", |bm| bm.free_frames().1 as f64);
        gauge(self, "backpressure_fallbacks", |bm| {
            bm.metrics().backpressure_fallbacks as f64
        });
        // Per-path shadow-migration abort rates: aborts / (aborts +
        // commits). A rising promote rate means foreground writes are
        // racing promotions; evict/flush rates expose write-back pressure.
        gauge(self, "shadow_abort_rate_promote", |bm| {
            bm.metrics().shadow_abort_rate(ShadowPath::Promote)
        });
        gauge(self, "shadow_abort_rate_evict", |bm| {
            bm.metrics().shadow_abort_rate(ShadowPath::Evict)
        });
        gauge(self, "shadow_abort_rate_flush", |bm| {
            bm.metrics().shadow_abort_rate(ShadowPath::Flush)
        });
        for (tier, label) in [(Tier::Dram, "dram"), (Tier::Nvm, "nvm"), (Tier::Ssd, "ssd")] {
            let w = Arc::downgrade(self);
            obs::register_gauge(format!("{label}_bytes_read"), move || {
                let stats = w.upgrade()?.device_stats(tier)?;
                Some(stats.snapshot().bytes_read as f64)
            });
            let w = Arc::downgrade(self);
            obs::register_gauge(format!("{label}_bytes_written"), move || {
                let stats = w.upgrade()?.device_stats(tier)?;
                Some(stats.snapshot().bytes_written as f64)
            });
        }
    }

    /// Add this manager's counters ([`BufferMetrics`], per-device stats) and
    /// point-in-time gauges to an observability report. Gauges already
    /// present in the report (e.g. from registered weak gauges) are not
    /// duplicated.
    pub fn fill_obs_report(&self, report: &mut obs::Report) {
        let m = self.metrics.snapshot();
        report.add_counter("dram_hits", m.dram_hits);
        report.add_counter("nvm_hits", m.nvm_hits);
        report.add_counter("ssd_fetches", m.ssd_fetches);
        report.add_counter("evictions_dram", m.evictions_dram);
        report.add_counter("evictions_nvm", m.evictions_nvm);
        report.add_counter("discards", m.discards);
        report.add_counter("fetch_fast", m.fetch_fast);
        report.add_counter("fetch_fallbacks", m.fetch_fallbacks);
        report.add_counter("pin_restarts", m.pin_restarts);
        report.add_counter("backpressure_fallbacks", m.backpressure_fallbacks);
        report.add_counter("maint_cycles", m.maint_cycles);
        report.add_counter("maint_evictions", m.maint_evictions);
        report.add_counter("maint_writebacks", m.maint_writebacks);
        report.add_counter("migrations_aborted", m.migrations_aborted);
        for path in ShadowPath::ALL {
            let name = path.name();
            report.add_counter(
                format!("shadow_aborts_{name}"),
                m.shadow_aborts[path as usize],
            );
            report.add_counter(
                format!("shadow_commits_{name}"),
                m.shadow_commits[path as usize],
            );
        }
        for path in MigrationPath::ALL {
            let label = path.label().replace("->", "_to_");
            report.add_counter(format!("migrations_{label}"), m.path(path));
        }
        for (tier, label) in [(Tier::Dram, "dram"), (Tier::Nvm, "nvm"), (Tier::Ssd, "ssd")] {
            if let Some(stats) = self.device_stats(tier) {
                let s = stats.snapshot();
                report.add_counter(format!("{label}_read_ops"), s.read_ops);
                report.add_counter(format!("{label}_write_ops"), s.write_ops);
                report.add_counter(format!("{label}_bytes_read"), s.bytes_read);
                report.add_counter(format!("{label}_bytes_written"), s.bytes_written);
                report.add_counter(format!("{label}_bytes_flushed"), s.bytes_flushed);
                report.add_counter(format!("{label}_fences"), s.fences);
            }
        }
        let have: std::collections::HashSet<&str> =
            report.gauges.iter().map(|(n, _)| n.as_str()).collect();
        let mut fresh: Vec<(String, f64)> = Vec::new();
        let mut gauge = |name: &str, v: f64| {
            if !have.contains(name) {
                fresh.push((name.to_string(), v));
            }
        };
        let (dram_occ, nvm_occ) = self.occupied_frames();
        gauge("dram_occupied_frames", dram_occ as f64);
        gauge("nvm_occupied_frames", nvm_occ as f64);
        let (dram_free, nvm_free) = self.free_frames();
        gauge("dram_free_frames", dram_free as f64);
        gauge("nvm_free_frames", nvm_free as f64);
        let (dram_dirty, nvm_dirty) = self.dirty_pages();
        gauge("dram_dirty_pages", dram_dirty as f64);
        gauge("nvm_dirty_pages", nvm_dirty as f64);
        gauge("admission_queue_len", self.admission_queue_len() as f64);
        let p = self.policy();
        gauge("policy_dr", p.dr);
        gauge("policy_dw", p.dw);
        gauge("policy_nr", p.nr);
        gauge("policy_nw", p.nw);
        gauge("buffer_hit_ratio", m.buffer_hit_ratio());
        gauge("inclusivity", self.inclusivity());
        for path in ShadowPath::ALL {
            gauge(
                &format!("shadow_abort_rate_{}", path.name()),
                m.shadow_abort_rate(path),
            );
        }
        report.gauges.extend(fresh);
    }

    /// Assert that no pins are outstanding and every descriptor's pin
    /// words agree with its copy states (stress-harness invariant check;
    /// call only when no guards are live and no migrations are running).
    ///
    /// Invariants checked per page: mutex pin counts are zero, optimistic
    /// pin counts are zero, the DRAM word is open iff the DRAM slot holds
    /// a Resident full-frame copy, and the NVM word is open iff the NVM
    /// slot holds one *and* no DRAM copy shadows it.
    pub fn assert_quiescent(&self) {
        fn full_resident(slot: &Option<CopyState>) -> bool {
            matches!(
                slot,
                Some(CopyState::Resident {
                    frame: FrameRef::Full(_),
                    ..
                })
            )
        }
        fn mutex_pins(slot: &Option<CopyState>) -> u32 {
            match slot {
                Some(CopyState::Resident { pins, .. } | CopyState::Busy { pins, .. }) => *pins,
                _ => 0,
            }
        }
        self.mapping.for_each(|pid, desc| {
            let st = desc.state.lock();
            assert!(!st.shadow_dram, "page {pid}: dram shadow op in flight");
            assert!(!st.shadow_nvm, "page {pid}: nvm shadow op in flight");
            assert_eq!(mutex_pins(&st.dram), 0, "page {pid}: dram mutex pins");
            assert_eq!(mutex_pins(&st.nvm), 0, "page {pid}: nvm mutex pins");
            assert_eq!(desc.dram_pin.pins(), 0, "page {pid}: dram fast pins");
            assert_eq!(desc.nvm_pin.pins(), 0, "page {pid}: nvm fast pins");
            assert_eq!(
                desc.dram_pin.is_open(),
                full_resident(&st.dram),
                "page {pid}: dram word/slot disagree ({:?})",
                st.dram
            );
            assert_eq!(
                desc.nvm_pin.is_open(),
                st.dram.is_none() && full_resident(&st.nvm),
                "page {pid}: nvm word/slot disagree (dram {:?}, nvm {:?})",
                st.dram,
                st.nvm
            );
        });
    }
}

/// Administrative handle over a [`BufferManager`]: every runtime mutator
/// that used to live as a free-standing `set_*` method on the manager is
/// grouped here, so the manager's own surface is read-mostly and the
/// mutating entry points are greppable as `admin()` calls.
///
/// Obtained from [`BufferManager::admin`]; borrows the manager, so it is
/// cheap to create on demand and cannot outlive it.
pub struct Admin<'a> {
    bm: &'a BufferManager,
}

impl Admin<'_> {
    /// Swap the active migration policy (used by the adaptive tuner, §4).
    pub fn set_policy(&self, policy: MigrationPolicy) {
        self.bm.policy.store(policy);
    }

    /// Change the emulated-delay scale on every device at runtime. Load
    /// phases run at [`spitfire_device::TimeScale::ZERO`] (no delays),
    /// measurement at `REAL`; counters are unaffected.
    pub fn set_time_scale(&self, scale: spitfire_device::TimeScale) {
        if let Some(p) = &self.bm.tier1 {
            p.set_time_scale(scale);
        }
        if let Some(p) = &self.bm.nvm {
            p.set_time_scale(scale);
        }
        self.bm.ssd.set_time_scale(scale);
    }

    /// Install (or clear) a fault injector on every device in the
    /// hierarchy. Chaos harness entry point; `None` restores fault-free
    /// operation.
    pub fn set_fault_injector(&self, injector: Option<Arc<FaultInjector>>) {
        if let Some(p) = &self.bm.tier1 {
            p.set_fault_injector(injector.clone());
        }
        if let Some(p) = &self.bm.nvm {
            p.set_fault_injector(injector.clone());
        }
        self.bm.ssd.set_fault_injector(injector);
    }

    /// Restore the page-id allocator after recovery (ids present only on
    /// SSD are the caller's to account for, e.g. from a catalog page).
    pub fn set_next_page_id(&self, next: u64) {
        self.bm.next_pid.fetch_max(next, Ordering::AcqRel);
    }
}

impl std::fmt::Debug for BufferManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferManager")
            .field("hierarchy", &self.hierarchy())
            .field("dram_frames", &self.dram_frames())
            .field("nvm_frames", &self.nvm_frames())
            .field("pages", &self.page_count())
            .finish_non_exhaustive()
    }
}

/// SplitMix64 scrambler: seeds the per-thread policy RNG streams with
/// well-mixed, pairwise-independent states.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Run `f` with a thread-local scratch buffer of `len` bytes. Re-entrant:
/// nested calls each get their own buffer from a per-thread pool.
pub(crate) fn with_page_buf<T>(len: usize, f: impl FnOnce(&mut [u8]) -> T) -> T {
    thread_local! {
        static POOL: std::cell::RefCell<Vec<Vec<u8>>> =
            const { std::cell::RefCell::new(Vec::new()) };
    }
    let mut buf = POOL.with(|p| p.borrow_mut().pop()).unwrap_or_default();
    if buf.len() < len {
        buf.resize(len, 0);
    }
    let out = f(&mut buf[..len]);
    POOL.with(|p| p.borrow_mut().push(buf));
    out
}
