//! Fetch: the lock-free hit path, the descriptor-mutex slow path, SSD
//! misses, and the guard callbacks (`unpin`, `mark_dirty`).

use super::*;

/// Direct-mapped slots in the per-thread descriptor cache. Hot working
/// sets are far smaller than this; collisions just fall back to the
/// mapping table.
const DESC_CACHE_SLOTS: usize = 64;

/// One per-thread descriptor cache entry: valid for a single manager
/// generation (`mgr`, `epoch`).
struct CachedDesc {
    mgr: u64,
    epoch: u64,
    pid: u64,
    desc: Arc<SharedPageDesc>,
}

thread_local! {
    /// pid → descriptor cache, shared across managers on this thread
    /// (entries are tagged with the owning manager and its crash epoch).
    static DESC_CACHE: RefCell<Vec<Option<CachedDesc>>> =
        RefCell::new((0..DESC_CACHE_SLOTS).map(|_| None).collect());
}

/// How the fast path resolved a fetch.
enum FastOutcome<'a> {
    /// Served lock-free: the guard holds an optimistic pin.
    Hit(PageGuard<'a>),
    /// Fall back to the mutex slow path with the resolved descriptor.
    /// `promote` carries an already-drawn D_r/D_w promotion coin
    /// (`Some(_)`) so the slow path never draws it twice.
    Slow(Arc<SharedPageDesc>, Option<bool>),
    /// No descriptor exists yet (first access, or an invalid pid): the
    /// slow path bounds-checks and creates it.
    NoDesc,
}

impl BufferManager {
    /// Fetch `pid` with the given intent, returning a pinned guard on
    /// whichever tier the migration policy placed the page (§5.1).
    ///
    /// A stably resident page is served by the lock-free fast path (a
    /// per-thread descriptor cache plus the descriptor's optimistic pin
    /// word); everything else — misses, promotions, contended
    /// transitions, fine-grained copies — falls back to the
    /// descriptor-mutex slow path.
    pub fn fetch(&self, pid: PageId, intent: AccessIntent) -> Result<PageGuard<'_>> {
        let obs_t = obs::op_start();
        match self.fetch_fast(pid, intent, obs_t) {
            FastOutcome::Hit(guard) => Ok(guard),
            FastOutcome::Slow(desc, promote) => self.fetch_slow(&desc, pid, intent, promote, obs_t),
            FastOutcome::NoDesc => {
                let desc = self.descriptor(pid)?;
                self.fetch_slow(&desc, pid, intent, None, obs_t)
            }
        }
    }

    /// Fetch `pid` for reading, returning a [`ReadGuard`] that statically
    /// has no write methods — passing read intent and then writing through
    /// the guard becomes a compile error instead of silently mis-charging
    /// the migration policy's read/write coins.
    pub fn fetch_read(&self, pid: PageId) -> Result<ReadGuard<'_>> {
        self.fetch(pid, AccessIntent::Read).map(ReadGuard::new)
    }

    /// Fetch `pid` for writing, returning a [`WriteGuard`] (read methods
    /// plus `write`/`write_u64`).
    pub fn fetch_write(&self, pid: PageId) -> Result<WriteGuard<'_>> {
        self.fetch(pid, AccessIntent::Write).map(WriteGuard::new)
    }

    /// Cache-miss descriptor resolution for [`Self::fetch_fast`]: consult
    /// the mapping table and install the result in the thread-local slot.
    /// The mapping probe takes a shard read lock, which is why this lives
    /// outside the `fastpath` lint region — a stably cached page never
    /// gets here.
    #[cold]
    fn fast_resolve_miss(&self, slot: &mut Option<CachedDesc>, pid: PageId, epoch: u64) -> bool {
        let Some(desc) = self.mapping.get(&pid.0) else {
            return false;
        };
        *slot = Some(CachedDesc {
            mgr: self.mgr_id,
            epoch,
            pid: pid.0,
            desc,
        });
        true
    }

    /// Mapping-table fallback for [`Self::unpin_fast`] when the cache slot
    /// was stolen by a colliding pid (or invalidated by a crash). After a
    /// crash the descriptor may be gone entirely — the pin died with it,
    /// and `PinWord::unpin` on a re-created descriptor is a harmless no-op
    /// at count zero. Takes a shard read lock, hence outside the
    /// `fastpath` lint region.
    #[cold]
    fn unpin_cold(&self, pid: PageId, in_dram_slot: bool) {
        if let Some(desc) = self.mapping.get(&pid.0) {
            desc.pin_word(in_dram_slot).unpin();
        }
    }

    // xtask: fastpath-begin -- lock-free hit path (fetch_fast/unpin_fast).
    // No lock types or acquisitions below; lock-taking fallbacks are the
    // #[cold] helpers above, outside this region.

    /// The lock-free hit path. An uncontended DRAM hit costs one
    /// thread-local array probe, one pin-word CAS, one CLOCK-bitmap bit
    /// set, and two relaxed counter bumps — no mutex, no shard lock, no
    /// `Arc` refcount traffic, no pid bounds check.
    fn fetch_fast(
        &self,
        pid: PageId,
        intent: AccessIntent,
        obs_t: Option<std::time::Instant>,
    ) -> FastOutcome<'_> {
        DESC_CACHE.with(|cache| {
            let mut cache = cache.borrow_mut();
            let slot = &mut cache[(pid.0 as usize) & (DESC_CACHE_SLOTS - 1)];
            // Acquire pairs with the release bump in `simulate_crash`: a
            // thread that sees the new epoch also sees the cleared
            // mapping table, so stale descriptors cannot be re-cached
            // under the new epoch.
            let epoch = self.cache_epoch.load(Ordering::Acquire);
            let desc: &Arc<SharedPageDesc> = match slot {
                Some(c) if c.mgr == self.mgr_id && c.epoch == epoch && c.pid == pid.0 => &c.desc,
                _ => {
                    if !self.fast_resolve_miss(slot, pid, epoch) {
                        return FastOutcome::NoDesc;
                    }
                    &slot.as_ref().expect("just resolved").desc
                }
            };
            // DRAM copy: one CAS pins it or we learn why not.
            if self.tier1.is_some() {
                match desc.dram_pin.try_pin() {
                    PinAttempt::Pinned(frame) => {
                        let f = FrameId(frame);
                        self.tier1_pool().touch(f);
                        self.metrics.record_dram_hit();
                        self.metrics.record_fetch_fast();
                        obs::record_op(Op::FetchDramHit, obs_t, pid.0, "dram");
                        return FastOutcome::Hit(PageGuard {
                            bm: self,
                            pid,
                            kind: GuardKind::FullDram(f),
                            in_dram_slot: true,
                            optimistic: true,
                        });
                    }
                    PinAttempt::Raced => {
                        // A transition closed the word between our load
                        // and CAS: restart into the mutex protocol.
                        self.metrics.record_pin_restart();
                        obs::record_op(Op::PinRestart, obs_t, pid.0, "dram");
                        return FastOutcome::Slow(Arc::clone(desc), None);
                    }
                    PinAttempt::Closed => {}
                }
            }
            // NVM copy: open implies Resident with no DRAM copy
            // shadowing it, so serving in place is consistent. The
            // promotion coin is drawn here (lazily — degenerate
            // probabilities skip the RNG); if it fires, the slow path
            // executes the promotion with the draw already made.
            if self.nvm.is_some() && desc.nvm_pin.is_open() {
                let promote = self.tier1.is_some()
                    && match intent {
                        AccessIntent::Read => self.policy.flip_dr_with(|| self.draw()),
                        AccessIntent::Write => self.policy.flip_dw_with(|| self.draw()),
                    };
                if promote {
                    return FastOutcome::Slow(Arc::clone(desc), Some(true));
                }
                match desc.nvm_pin.try_pin() {
                    PinAttempt::Pinned(frame) => {
                        let f = FrameId(frame);
                        self.nvm_pool().touch(f);
                        self.metrics.record_nvm_hit();
                        self.metrics.record_fetch_fast();
                        obs::record_op(Op::FetchNvmHit, obs_t, pid.0, "nvm");
                        return FastOutcome::Hit(PageGuard {
                            bm: self,
                            pid,
                            kind: GuardKind::FullNvm(f),
                            in_dram_slot: false,
                            optimistic: true,
                        });
                    }
                    PinAttempt::Raced | PinAttempt::Closed => {
                        // The coin was already drawn (tails): pass it
                        // down so the slow path does not re-draw.
                        self.metrics.record_pin_restart();
                        obs::record_op(Op::PinRestart, obs_t, pid.0, "nvm");
                        return FastOutcome::Slow(Arc::clone(desc), Some(false));
                    }
                }
            }
            FastOutcome::Slow(Arc::clone(desc), None)
        })
    }

    /// Drop an optimistic pin (guard drop). Mirrors `fetch_fast`: the
    /// descriptor comes from the per-thread cache when possible, and the
    /// unpin is a single CAS — no mutex, no condvar. Nothing ever blocks
    /// waiting for optimistic pins to drain (`Busy` states start at zero
    /// pins; evictors and promoters skip or serve in place instead), so
    /// no notification is needed.
    pub(crate) fn unpin_fast(&self, pid: PageId, in_dram_slot: bool) {
        let epoch = self.cache_epoch.load(Ordering::Acquire);
        let cached = DESC_CACHE.with(|cache| {
            let cache = cache.borrow();
            match &cache[(pid.0 as usize) & (DESC_CACHE_SLOTS - 1)] {
                Some(c) if c.mgr == self.mgr_id && c.epoch == epoch && c.pid == pid.0 => {
                    c.desc.pin_word(in_dram_slot).unpin();
                    true
                }
                _ => false,
            }
        });
        if !cached {
            self.unpin_cold(pid, in_dram_slot);
        }
    }

    // xtask: fastpath-end

    /// The descriptor-mutex fetch protocol (misses, migrations, waits).
    /// `promote` carries a promotion coin the fast path already drew for
    /// an NVM-resident page, consumed by the first NVM-resident arm.
    fn fetch_slow(
        &self,
        desc: &SharedPageDesc,
        pid: PageId,
        intent: AccessIntent,
        promote: Option<bool>,
        obs_t: Option<std::time::Instant>,
    ) -> Result<PageGuard<'_>> {
        self.metrics.record_fetch_fallback();
        let mut promote_hint = promote;
        let mut st = desc.state.lock();
        loop {
            // 1. Tier-1 (DRAM) copy.
            if self.tier1.is_some() {
                match &mut st.dram {
                    Some(CopyState::Resident { frame, pins, .. }) => {
                        *pins += 1;
                        let kind = match frame {
                            FrameRef::Full(f) => GuardKind::FullDram(*f),
                            FrameRef::Fine(_) | FrameRef::Mini(_) => GuardKind::FineGrained,
                        };
                        self.tier1_pool().touch(frame.frame());
                        drop(st);
                        self.metrics.record_dram_hit();
                        obs::record_op(Op::FetchDramHit, obs_t, pid.0, "dram");
                        return Ok(PageGuard {
                            bm: self,
                            pid,
                            kind,
                            in_dram_slot: true,
                            optimistic: false,
                        });
                    }
                    Some(_) => {
                        let stall_t = obs::op_start();
                        desc.cond.wait(&mut st);
                        obs::record_op(Op::ReaderStall, stall_t, pid.0, "dram");
                        continue;
                    }
                    None => {}
                }
            }
            // 2. NVM copy.
            if self.nvm.is_some() {
                match &mut st.nvm {
                    Some(CopyState::Resident { frame, pins, dirty }) => {
                        let f = frame.frame();
                        let cur_pins = *pins;
                        let dirty0 = *dirty;
                        // A shadow operation owns this copy's transitions:
                        // serve in place rather than promote from under it.
                        let shadowed = st.shadow_nvm;
                        // Consume the fast path's coin if it drew one;
                        // otherwise draw here (lazily). Never both — a
                        // double draw would square the probability.
                        let want_promote = self.tier1.is_some()
                            && !shadowed
                            && match promote_hint.take() {
                                Some(p) => p,
                                None => match intent {
                                    AccessIntent::Read => self.policy.flip_dr_with(|| self.draw()),
                                    AccessIntent::Write => self.policy.flip_dw_with(|| self.draw()),
                                },
                            };
                        // Promotion (path ⑥) only starts on an NVM copy with
                        // no mutex pins (§5.2's drain, formulated as only
                        // starting when drained); otherwise, or when the
                        // promotion cannot start, serve in place.
                        if want_promote && cur_pins == 0 && self.config.fine_grained.is_none() {
                            // Full frame: shadow promotion. The NVM word
                            // stays open across the copy, so hit-path
                            // readers never stall behind the move.
                            if let Some(token) = desc.nvm_pin.shadow_begin() {
                                st.shadow_nvm = true;
                                drop(st);
                                if let Some(guard) = self.promote_shadow(desc, f, token)? {
                                    obs::record_op(Op::FetchNvmHit, obs_t, pid.0, "dram");
                                    return Ok(guard);
                                }
                                // Aborted (raced a write, readers draining,
                                // or no DRAM frame): the NVM copy is
                                // untouched — serve it in place on the retry.
                                promote_hint = Some(false);
                                st = desc.state.lock();
                                continue;
                            }
                        } else if want_promote && cur_pins == 0 {
                            // Fine/mini copy: the granule protocol. Closing
                            // the word with zero optimistic pins makes the
                            // NVM copy exclusively ours to back; readers
                            // still draining mean serve in place instead.
                            if desc.nvm_pin.close() > 0 {
                                desc.nvm_pin.open(f.0);
                            } else {
                                st.nvm = Some(CopyState::Busy {
                                    frame: FrameRef::Full(f),
                                    pins: 0,
                                    dirty: dirty0,
                                });
                                st.dram = Some(CopyState::Loading);
                                drop(st);
                                let e = match self.promote_fine(desc, f, dirty0) {
                                    Ok(guard) => {
                                        obs::record_op(Op::FetchNvmHit, obs_t, pid.0, "dram");
                                        return Ok(guard);
                                    }
                                    Err(e) => e,
                                };
                                st = desc.state.lock();
                                st.dram = None;
                                st.nvm = Some(CopyState::Resident {
                                    frame: FrameRef::Full(f),
                                    pins: 0,
                                    dirty: dirty0,
                                });
                                Self::reopen_nvm_word(desc, &st);
                                desc.cond.notify_all();
                                if !matches!(e, BufferError::NoFrames { .. }) {
                                    return Err(e);
                                }
                                // DRAM had no evictable frame: degrade
                                // gracefully to an in-place NVM access.
                                promote_hint = Some(false);
                                continue;
                            }
                        }
                        if let Some(CopyState::Resident { pins, .. }) = &mut st.nvm {
                            *pins += 1;
                        }
                        self.nvm_pool().touch(f);
                        drop(st);
                        self.metrics.record_nvm_hit();
                        obs::record_op(Op::FetchNvmHit, obs_t, pid.0, "nvm");
                        return Ok(PageGuard {
                            bm: self,
                            pid,
                            kind: GuardKind::FullNvm(f),
                            in_dram_slot: false,
                            optimistic: false,
                        });
                    }
                    Some(_) => {
                        let stall_t = obs::op_start();
                        desc.cond.wait(&mut st);
                        obs::record_op(Op::ReaderStall, stall_t, pid.0, "nvm");
                        continue;
                    }
                    None => {}
                }
            }
            // 3. Miss: fetch from SSD, placing per the policy (§3.3/§3.2).
            let to_dram = match (self.tier1.is_some(), self.nvm.is_some()) {
                (true, false) => true,
                (false, true) => false,
                (true, true) => match intent {
                    AccessIntent::Read => !self.policy.flip_nr_with(|| self.draw()),
                    AccessIntent::Write => self.policy.flip_dw_with(|| self.draw()),
                },
                (false, false) => unreachable!("validated: at least one buffer"),
            };
            *st.slot_mut(to_dram) = Some(CopyState::Loading);
            drop(st);
            self.metrics.record_ssd_fetch();
            match self.load_from_ssd(pid, to_dram) {
                Ok(guard) => {
                    obs::record_op(
                        Op::FetchSsdMiss,
                        obs_t,
                        pid.0,
                        if to_dram { "dram" } else { "nvm" },
                    );
                    return Ok(guard);
                }
                Err(BufferError::NoFrames { .. }) if self.tier1.is_some() && self.nvm.is_some() => {
                    // The chosen pool has no evictable frame (e.g. every NVM
                    // frame is pinned as fine-grained backing): fall back to
                    // the other tier. No other thread can have installed a
                    // copy meanwhile — they all wait on our Loading marker.
                    let mut st = desc.state.lock();
                    *st.slot_mut(to_dram) = None;
                    *st.slot_mut(!to_dram) = Some(CopyState::Loading);
                    desc.cond.notify_all();
                    drop(st);
                    match self.load_from_ssd(pid, !to_dram) {
                        Ok(guard) => {
                            obs::record_op(
                                Op::FetchSsdMiss,
                                obs_t,
                                pid.0,
                                if to_dram { "nvm" } else { "dram" },
                            );
                            return Ok(guard);
                        }
                        Err(e) => {
                            let mut st = desc.state.lock();
                            *st.slot_mut(!to_dram) = None;
                            desc.cond.notify_all();
                            return Err(e);
                        }
                    }
                }
                Err(e) => {
                    let mut st = desc.state.lock();
                    *st.slot_mut(to_dram) = None;
                    desc.cond.notify_all();
                    return Err(e);
                }
            }
        }
    }

    /// Load a page from SSD into the chosen tier (paths ① / ④). The
    /// destination slot is `Loading` on entry.
    fn load_from_ssd(&self, pid: PageId, to_dram: bool) -> Result<PageGuard<'_>> {
        let desc = self
            .mapping
            .get(&pid.0)
            .ok_or(BufferError::UnknownPage(pid))?;
        let page = self.config.page_size;
        let mig_t = obs::op_start();
        if to_dram {
            let frame = self.alloc_frame(true)?;
            with_page_buf(page, |buf| -> Result<()> {
                self.read_ssd_page(pid, buf)?;
                self.tier1_pool()
                    .write(frame, 0, buf, AccessPattern::Sequential)?;
                Ok(())
            })?;
            self.tier1_pool().set_owner(frame, pid);
            let mut st = desc.state.lock();
            st.dram = Some(CopyState::Resident {
                frame: FrameRef::Full(frame),
                pins: 1,
                dirty: false,
            });
            desc.dram_pin.open(frame.0);
            desc.cond.notify_all();
            drop(st);
            self.metrics.record_migration(MigrationPath::SsdToDram);
            obs::record_op(Op::MigSsdToDram, mig_t, pid.0, "dram");
            Ok(PageGuard {
                bm: self,
                pid,
                kind: GuardKind::FullDram(frame),
                in_dram_slot: true,
                optimistic: false,
            })
        } else {
            let frame = self.alloc_frame(false)?;
            with_page_buf(page, |buf| -> Result<()> {
                self.read_ssd_page(pid, buf)?;
                let pool = self.nvm_pool();
                pool.write(frame, 0, buf, AccessPattern::Sequential)?;
                pool.persist(frame, 0, page)?;
                pool.write_frame_header(frame, pid)?;
                Ok(())
            })?;
            self.nvm_pool().set_owner(frame, pid);
            let mut st = desc.state.lock();
            st.nvm = Some(CopyState::Resident {
                frame: FrameRef::Full(frame),
                pins: 1,
                dirty: false,
            });
            // No DRAM copy exists (waiters blocked on our Loading
            // marker), so the NVM copy is optimistically pinnable.
            desc.nvm_pin.open(frame.0);
            desc.cond.notify_all();
            drop(st);
            self.metrics.record_migration(MigrationPath::SsdToNvm);
            obs::record_op(Op::MigSsdToNvm, mig_t, pid.0, "nvm");
            Ok(PageGuard {
                bm: self,
                pid,
                kind: GuardKind::FullNvm(frame),
                in_dram_slot: false,
                optimistic: false,
            })
        }
    }

    /// Drop one pin on the page's copy (guard drop).
    pub(crate) fn unpin(&self, pid: PageId, in_dram_slot: bool) {
        let Some(desc) = self.mapping.get(&pid.0) else {
            return;
        };
        let mut st = desc.state.lock();
        let slot = st.slot_mut(in_dram_slot);
        if let Some(CopyState::Resident { pins, .. } | CopyState::Busy { pins, .. }) = slot {
            debug_assert!(*pins > 0, "unpin without pin on {pid}");
            *pins = pins.saturating_sub(1);
        }
        desc.cond.notify_all();
    }

    /// Mark the pinned copy dirty (guard write).
    pub(crate) fn mark_dirty(&self, pid: PageId, in_dram_slot: bool) {
        let Some(desc) = self.mapping.get(&pid.0) else {
            return;
        };
        {
            let mut st = desc.state.lock();
            if let Some(CopyState::Resident { dirty, .. } | CopyState::Busy { dirty, .. }) =
                st.slot_mut(in_dram_slot)
            {
                *dirty = true;
            }
            // Stamp the write end onto the pin word: a shadow copy taken
            // during this write's window observes the bump and discards its
            // (possibly torn) copy. Bumping while the guard's pin is still
            // held is what makes the shadow commit's drain + version
            // re-check airtight — see `PinWord::shadow_commit`.
            desc.pin_word(in_dram_slot).bump_version();
        }
        self.note_dirty_epoch(&desc);
    }
}
