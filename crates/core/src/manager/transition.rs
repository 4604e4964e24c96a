//! Page transitions: shadow-copy promotion, DRAM/NVM eviction, and
//! checkpoint flushes, all settled through one commit check.

use super::*;

/// Spin budget a shadow-copy commit spends draining optimistic pins
/// (see [`spitfire_sync::PinWord::shadow_commit`]). Live readers hold a
/// pin for a handful of loads, so a short budget drains them; a pin that
/// outlasts it belongs to a descheduled thread or to a writer blocked on
/// *our* descriptor mutex — spinning longer would deadlock on the latter,
/// so the commit aborts and the migration retries later.
const SHADOW_COMMIT_SPIN: u32 = 128;

impl BufferManager {
    /// Re-open the NVM pin word if the current state allows optimistic
    /// NVM pins (Resident full-frame copy, no DRAM copy shadowing it).
    /// Call under the descriptor mutex after restoring a state.
    pub(super) fn reopen_nvm_word(desc: &SharedPageDesc, st: &PageState) {
        if st.dram.is_none() {
            if let Some(CopyState::Resident {
                frame: FrameRef::Full(f),
                ..
            }) = &st.nvm
            {
                desc.nvm_pin.open(f.0);
            }
        }
    }

    /// Re-open the DRAM pin word if the DRAM slot holds a Resident
    /// full-frame copy. Call under the descriptor mutex.
    fn reopen_dram_word(desc: &SharedPageDesc, st: &PageState) {
        if let Some(CopyState::Resident {
            frame: FrameRef::Full(f),
            ..
        }) = &st.dram
        {
            desc.dram_pin.open(f.0);
        }
    }

    /// Shadow-copy promotion NVM → DRAM (path ⑥). On entry
    /// `st.shadow_nvm` is set and the NVM slot is untouched — still
    /// `Resident` with its word open — so both the optimistic fast path
    /// and the mutex slow path keep serving the NVM copy throughout the
    /// copy window. Commits through [`Self::settle_shadow`]; returns
    /// `Ok(None)` when the migration aborted — the NVM copy stays
    /// authoritative and the caller serves it in place.
    pub(super) fn promote_shadow(
        &self,
        desc: &SharedPageDesc,
        nvm_frame: FrameId,
        token: ShadowToken,
    ) -> Result<Option<PageGuard<'_>>> {
        let mig_t = obs::op_start();
        let page = self.config.page_size;
        let dram_frame = match self.alloc_frame(true) {
            Ok(f) => f,
            Err(e) => {
                let mut st = desc.state.lock();
                self.settle_shadow(desc, &mut st, false, &token, ShadowPath::Promote, false);
                drop(st);
                if matches!(e, BufferError::NoFrames { .. }) {
                    self.metrics.record_shadow_abort(ShadowPath::Promote);
                    return Ok(None);
                }
                return Err(e);
            }
        };
        // The copy window: the source stays open, so a racing writer may be
        // mutating these bytes as we read them. The arena contract allows
        // that (torn bytes, never memory unsafety) because the copy is
        // validated before install — the commit aborts if any write bumped
        // the version, and the torn copy is discarded.
        let copy_res = with_page_buf(page, |buf| -> Result<()> {
            self.nvm_pool()
                .read(nvm_frame, 0, buf, AccessPattern::Sequential)?;
            self.tier1_pool()
                .write(dram_frame, 0, buf, AccessPattern::Sequential)?;
            Ok(())
        });
        self.tier1_pool().set_owner(dram_frame, desc.pid);
        // The shadow flag kept the slots stable (exclusions in eviction,
        // flush, and fetch): NVM is still `Resident` and no DRAM copy
        // appeared; only pins and the dirty flag may have moved.
        let mut st = desc.state.lock();
        let io_ok = copy_res.is_ok();
        if !self.settle_shadow(desc, &mut st, false, &token, ShadowPath::Promote, io_ok) {
            drop(st);
            self.tier1_pool().free(dram_frame);
            return copy_res.map(|()| None);
        }
        // Committed: the NVM word is closed with zero pins and the copied
        // bytes are proven current. Install the DRAM copy; the NVM word
        // stays closed (a DRAM copy shadows it).
        st.dram = Some(CopyState::Resident {
            frame: FrameRef::Full(dram_frame),
            pins: 1,
            dirty: false,
        });
        desc.dram_pin.open(dram_frame.0);
        drop(st);
        self.metrics.record_migration(MigrationPath::NvmToDram);
        obs::record_op(Op::MigNvmToDram, mig_t, desc.pid.0, "dram");
        Ok(Some(PageGuard {
            bm: self,
            pid: desc.pid,
            kind: GuardKind::FullDram(dram_frame),
            in_dram_slot: true,
            optimistic: false,
        }))
    }

    /// The one commit check every shadow transition ends with, called
    /// under the descriptor mutex once the copy window closed. It releases
    /// the copy's shadow claim (`dram` selects the slot) and decides
    /// whether the copied bytes are provably the current ones: zero mutex
    /// pins (a pinned guard may be a writer whose bytes landed in the
    /// window but whose version bump has not happened yet) and a version
    /// unchanged since [`spitfire_sync::PinWord::shadow_begin`].
    ///
    /// Transitions that retire the source (`Promote`, `Evict`) commit
    /// through [`spitfire_sync::PinWord::shadow_commit`], which on success
    /// leaves the word closed with zero optimistic pins; an abort reopens
    /// it here so readers resume on the still-authoritative copy. `Flush`
    /// keeps the copy resident, so it only validates
    /// ([`spitfire_sync::PinWord::shadow_still_clean`] plus zero
    /// optimistic pins) and never closes the word. A copy whose I/O failed
    /// (`io_ok == false`) just releases the claim, uncounted.
    fn settle_shadow(
        &self,
        desc: &SharedPageDesc,
        st: &mut PageState,
        dram: bool,
        token: &ShadowToken,
        path: ShadowPath,
        io_ok: bool,
    ) -> bool {
        if dram {
            st.shadow_dram = false;
        } else {
            st.shadow_nvm = false;
        }
        desc.cond.notify_all();
        if !io_ok {
            return false;
        }
        let word = desc.pin_word(dram);
        let mutex_pins = match st.slot_mut(dram) {
            Some(CopyState::Resident { pins, .. }) => *pins,
            _ => u32::MAX,
        };
        let ok = mutex_pins == 0
            && if path == ShadowPath::Flush {
                word.pins() == 0 && word.shadow_still_clean(token)
            } else {
                let stall_t = obs::op_start();
                let outcome = word.shadow_commit(token, SHADOW_COMMIT_SPIN);
                let tier = if dram { "dram" } else { "nvm" };
                obs::record_op(Op::MigrationStall, stall_t, desc.pid.0, tier);
                let committed = matches!(outcome, ShadowOutcome::Committed);
                if !committed {
                    // shadow_commit left the word closed: reopen it.
                    if dram {
                        Self::reopen_dram_word(desc, st);
                    } else {
                        Self::reopen_nvm_word(desc, st);
                    }
                }
                committed
            };
        if ok {
            self.metrics.record_shadow_commit(path);
        } else {
            self.metrics.record_shadow_abort(path);
        }
        ok
    }

    /// Attempt to evict `vpid`'s copy occupying `victim` in the given pool.
    /// Returns `true` if the frame was freed.
    pub(super) fn try_evict(&self, dram: bool, victim: FrameId, vpid: PageId) -> bool {
        let Some(desc) = self.mapping.get(&vpid.0) else {
            return false;
        };
        if dram {
            self.try_evict_dram(&desc, victim)
        } else {
            self.try_evict_nvm(&desc, victim)
        }
    }

    /// Evict every mini page hosted by slab frame `victim`; frees the slab
    /// once its last occupant leaves.
    pub(super) fn try_evict_slab(&self, victim: FrameId) -> bool {
        let Some(mini) = &self.mini else { return false };
        if !mini.is_slab(victim) {
            return false;
        }
        let mut freed_any = false;
        for pid in mini.members_of(victim) {
            if let Some(desc) = self.mapping.get(&pid.0) {
                freed_any |= self.try_evict_dram(&desc, victim);
            }
        }
        freed_any
    }

    /// Evict the DRAM copy of `desc` if it occupies `victim` and is
    /// evictable right now.
    fn try_evict_dram(&self, desc: &SharedPageDesc, victim: FrameId) -> bool {
        let Some(mut st) = desc.state.try_lock() else {
            return false;
        };
        if st.shadow_dram || st.shadow_nvm {
            // A shadow operation owns this page's transitions right now.
            return false;
        }
        let Some(CopyState::Resident {
            frame,
            pins: 0,
            dirty,
        }) = &st.dram
        else {
            return false;
        };
        if frame.frame() != victim {
            return false;
        }
        let (fref, dirty) = (frame.clone(), *dirty);
        if let (FrameRef::Full(f), true) = (&fref, dirty) {
            return self.evict_dram_shadow(desc, st, *f);
        }

        // Clean copies are discarded without I/O (§3.3 — unmodified pages
        // are simply dropped, so there is nothing to shadow); dirty
        // fine/mini copies write their granules back under the mutex
        // protocol. Either way, stop optimistic pinners first: a non-zero
        // fast count means readers are mid-access — re-open and pick
        // another victim. (Fine/mini copies never open the word, so
        // `close` is a no-op returning zero for them.)
        if desc.dram_pin.close() > 0 {
            Self::reopen_dram_word(desc, &st);
            return false;
        }
        let granule_target = if dirty {
            // A fine/mini copy holds one backing pin on its NVM copy;
            // anything beyond that means concurrent readers.
            let Some(CopyState::Resident {
                frame: nf,
                pins: 0..=1,
                dirty: nvm_dirty,
            }) = &st.nvm
            else {
                Self::reopen_dram_word(desc, &st);
                return false;
            };
            let nvm_frame = nf.frame();
            st.nvm = Some(CopyState::Busy {
                frame: FrameRef::Full(nvm_frame),
                pins: 0,
                dirty: *nvm_dirty,
            });
            Some(nvm_frame)
        } else {
            None
        };
        st.dram = Some(CopyState::Busy {
            frame: fref.clone(),
            pins: 0,
            dirty,
        });
        drop(st);

        let evict_t = obs::op_start();
        match granule_target {
            None => {
                self.release_dram_copy(desc, fref, None);
                self.metrics.record_discard();
            }
            Some(nvm_frame) => {
                self.write_back_granules(desc, &fref, nvm_frame);
                self.release_dram_copy(
                    desc,
                    fref,
                    Some(CopyState::Resident {
                        frame: FrameRef::Full(nvm_frame),
                        pins: 0,
                        dirty: true,
                    }),
                );
                self.metrics.record_migration(MigrationPath::DramToNvm);
                obs::record_op(Op::MigDramToNvm, evict_t, desc.pid.0, "nvm");
            }
        }
        self.metrics.record_dram_eviction();
        obs::record_op(Op::EvictDram, evict_t, desc.pid.0, "dram");
        true
    }

    /// Shadow-copy eviction of a dirty full-frame DRAM copy: the
    /// write-back I/O runs while the copy stays `Resident` and its pin word
    /// open, so hit-path readers never stall behind the device write. The
    /// slot transition commits through [`Self::settle_shadow`]; on abort
    /// the DRAM copy stays resident, dirty, and authoritative, and the
    /// destination bytes (which may be torn) are either re-marked dirty
    /// (merge) or left as an unsynced, superseded SSD image. Takes the
    /// descriptor lock held by [`Self::try_evict_dram`].
    fn evict_dram_shadow(
        &self,
        desc: &SharedPageDesc,
        mut st: parking_lot::MutexGuard<'_, PageState>,
        frame: FrameId,
    ) -> bool {
        let Some(token) = desc.dram_pin.shadow_begin() else {
            return false;
        };
        // Decide the destination under the lock. A pre-existing NVM copy
        // is the merge target and is marked `Busy` for the duration;
        // otherwise the copy is admitted to NVM (coin flip `N_w` or the
        // admission queue) or bypasses it straight to SSD (§3.4).
        let merge_nf = match &st.nvm {
            Some(CopyState::Resident {
                frame: nf,
                pins: 0,
                dirty: nvm_dirty,
            }) => {
                let nvm_frame = nf.frame();
                let d = *nvm_dirty;
                st.nvm = Some(CopyState::Busy {
                    frame: FrameRef::Full(nvm_frame),
                    pins: 0,
                    dirty: d,
                });
                Some(nvm_frame)
            }
            Some(_) => return false,
            None => None,
        };
        let admit = merge_nf.is_none()
            && self.nvm.is_some()
            && if self.policy.uses_admission_queue() {
                self.admission
                    .as_ref()
                    .expect("queue exists when NVM pool exists")
                    .consider(desc.pid.0)
            } else {
                self.policy.flip_nw_with(|| self.draw())
            };
        st.shadow_dram = true;
        drop(st);

        let evict_t = obs::op_start();
        // The copy window: racing writers may tear the bytes we read — the
        // commit's version check discards such a copy.
        // (io_ok, destination NVM frame, freshly admitted?, migration path)
        let (io_ok, dest_nf, admitted, path) = match merge_nf {
            Some(nf) => (
                self.write_dram_copy_to_nvm(frame, nf, None).is_ok(),
                Some(nf),
                false,
                MigrationPath::DramToNvm,
            ),
            None => {
                let mut outcome = None;
                if admit {
                    if let Ok(nf) = self.alloc_frame(false) {
                        if self
                            .write_dram_copy_to_nvm(frame, nf, Some(desc.pid))
                            .is_ok()
                        {
                            self.nvm_pool().set_owner(nf, desc.pid);
                            outcome = Some((true, Some(nf), true, MigrationPath::DramToNvm));
                        } else {
                            // Give the claimed frame back (scrubbing any
                            // partially-written header so recovery cannot
                            // adopt it) and fall back to the SSD leg.
                            let _ = self.nvm_pool().clear_frame_header(nf);
                            self.nvm_pool().free(nf);
                        }
                    }
                }
                outcome.unwrap_or_else(|| {
                    // The eviction write is left unsynced; durability
                    // barriers (checkpoint, NVM write-back) sync before
                    // relying on SSD images.
                    (
                        self.write_dram_copy_to_ssd(desc, frame).is_ok(),
                        None,
                        false,
                        MigrationPath::DramToSsd,
                    )
                })
            }
        };

        let mut st = desc.state.lock();
        if !self.settle_shadow(desc, &mut st, true, &token, ShadowPath::Evict, io_ok) {
            // Abort: the DRAM copy stays Resident, dirty, authoritative.
            if let Some(nf) = merge_nf {
                // The merge may have landed torn bytes in the NVM copy:
                // keep it dirty so it can never be discarded as clean.
                st.nvm = Some(CopyState::Resident {
                    frame: FrameRef::Full(nf),
                    pins: 0,
                    dirty: true,
                });
            }
            drop(st);
            if admitted {
                // The freshly admitted frame was never linked into the
                // descriptor; scrub its header and give it back.
                let nf = dest_nf.expect("admitted implies a destination frame");
                let _ = self.nvm_pool().clear_frame_header(nf);
                self.nvm_pool().free(nf);
            }
            return false;
        }
        // Committed: zero pins, version unchanged — the written-down bytes
        // are proven current. Retire the DRAM copy.
        st.dram = None;
        if let Some(nf) = dest_nf {
            st.nvm = Some(CopyState::Resident {
                frame: FrameRef::Full(nf),
                pins: 0,
                dirty: true,
            });
        }
        Self::reopen_nvm_word(desc, &st);
        drop(st);
        self.tier1_pool().free(frame);
        self.metrics.record_migration(path);
        let (op, tier) = match path {
            MigrationPath::DramToNvm => (Op::MigDramToNvm, "nvm"),
            _ => (Op::MigDramToSsd, "ssd"),
        };
        obs::record_op(op, evict_t, desc.pid.0, tier);
        self.metrics.record_dram_eviction();
        obs::record_op(Op::EvictDram, evict_t, desc.pid.0, "dram");
        true
    }

    /// Copy the full DRAM frame `src` over NVM frame `dst` and persist it;
    /// `header` also stamps `dst`'s frame header (a freshly admitted
    /// copy). Racing writers may tear the bytes — shadow callers validate
    /// before trusting them.
    fn write_dram_copy_to_nvm(
        &self,
        src: FrameId,
        dst: FrameId,
        header: Option<PageId>,
    ) -> Result<()> {
        let page = self.config.page_size;
        with_page_buf(page, |buf| -> Result<()> {
            self.tier1_pool()
                .read(src, 0, buf, AccessPattern::Sequential)?;
            let pool = self.nvm_pool();
            pool.write(dst, 0, buf, AccessPattern::Sequential)?;
            pool.persist(dst, 0, page)?;
            if let Some(pid) = header {
                pool.write_frame_header(dst, pid)?;
            }
            Ok(())
        })
    }

    fn write_dram_copy_to_ssd(&self, desc: &SharedPageDesc, frame: FrameId) -> Result<()> {
        let page = self.config.page_size;
        with_page_buf(page, |buf| -> Result<()> {
            self.tier1_pool()
                .read(frame, 0, buf, AccessPattern::Sequential)?;
            retry_device_io(&self.metrics, "dram write-back", || {
                self.ssd.write_page(desc.pid.0, buf)
            })?;
            Ok(())
        })
    }

    /// Finish a DRAM eviction: clear the DRAM slot, restore the NVM slot
    /// (if a migration touched it), free the frame or mini slot, notify.
    fn release_dram_copy(&self, desc: &SharedPageDesc, fref: FrameRef, new_nvm: Option<CopyState>) {
        // Free the frame *after* clearing the slot so a racing fetch cannot
        // observe a freed frame id in a Resident state.
        let mut st = desc.state.lock();
        st.dram = None;
        let fine = !matches!(fref, FrameRef::Full(_));
        if let Some(nvm_state) = new_nvm {
            st.nvm = Some(nvm_state);
        } else if fine {
            // Clean fine-grained copy discarded: release the backing pin.
            if let Some(CopyState::Resident { pins, .. } | CopyState::Busy { pins, .. }) =
                &mut st.nvm
            {
                *pins = pins.saturating_sub(1);
            }
        }
        // With the DRAM copy gone, a surviving Resident NVM copy becomes
        // optimistically pinnable again.
        Self::reopen_nvm_word(desc, &st);
        desc.cond.notify_all();
        drop(st);
        match fref {
            FrameRef::Full(f) => self.tier1_pool().free(f),
            FrameRef::Fine(fp) => self.tier1_pool().free(fp.frame),
            FrameRef::Mini(mp) => {
                let mini = self.mini.as_ref().expect("mini slabs exist for mini pages");
                if mini.free_slot(mp.slot) {
                    self.tier1_pool().free(mp.slot.slab);
                }
            }
        }
    }

    /// Claim `victim`'s NVM copy for eviction or write-back: the copy must
    /// be `Resident` with zero mutex pins, occupying `victim`. `None`
    /// means back off and pick another victim. Returns `(dirty, token)`;
    /// see [`Self::claim_nvm_locked`].
    pub(super) fn claim_nvm_victim(
        &self,
        desc: &SharedPageDesc,
        victim: FrameId,
    ) -> Option<(bool, Option<ShadowToken>)> {
        let mut st = desc.state.try_lock()?;
        if st.shadow_nvm || st.shadow_dram {
            return None;
        }
        let Some(CopyState::Resident {
            frame,
            pins: 0,
            dirty,
        }) = &st.nvm
        else {
            return None;
        };
        if frame.frame() != victim {
            return None;
        }
        let dirty = *dirty;
        Self::claim_nvm_locked(desc, &mut st, victim, dirty).map(|token| (dirty, token))
    }

    /// Claim the NVM copy in `frame` (`Resident`, zero mutex pins; the
    /// descriptor mutex is held). A *dirty* copy whose word is open is
    /// claimed as a shadow copy: the slot stays `Resident`,
    /// `st.shadow_nvm` is set, and the returned token later settles the
    /// transition once the SSD image is durable — readers never stall
    /// behind the device write + sync. Clean copies (no I/O ahead of the
    /// retirement) and copies whose word is closed (a DRAM copy shadows
    /// them, so readers use DRAM and nobody stalls) take the `Busy` claim:
    /// word closed, token `None`. `None` means optimistic readers are
    /// mid-access — back off.
    fn claim_nvm_locked(
        desc: &SharedPageDesc,
        st: &mut PageState,
        frame: FrameId,
        dirty: bool,
    ) -> Option<Option<ShadowToken>> {
        if dirty {
            if let Some(token) = desc.nvm_pin.shadow_begin() {
                st.shadow_nvm = true;
                return Some(Some(token));
            }
        }
        if desc.nvm_pin.close() > 0 {
            Self::reopen_nvm_word(desc, st);
            return None;
        }
        st.nvm = Some(CopyState::Busy {
            frame: FrameRef::Full(frame),
            pins: 0,
            dirty,
        });
        Some(None)
    }

    /// Settle a shadow-claimed NVM eviction after its SSD image is
    /// durable. On commit the slot is left `Busy` with the word closed —
    /// exclusively claimed, so [`Self::finish_nvm_eviction`] can clear the
    /// frame header outside the mutex. On abort the copy stays `Resident`
    /// and dirty: the synced SSD image may be stale or torn, but the NVM
    /// bytes and frame header remain authoritative for both runtime reads
    /// and crash recovery.
    pub(super) fn commit_nvm_shadow(
        &self,
        desc: &SharedPageDesc,
        victim: FrameId,
        token: &ShadowToken,
    ) -> bool {
        let mut st = desc.state.lock();
        let committed = self.settle_shadow(desc, &mut st, false, token, ShadowPath::Evict, true);
        if committed {
            st.nvm = Some(CopyState::Busy {
                frame: FrameRef::Full(victim),
                pins: 0,
                dirty: false,
            });
        }
        committed
    }

    /// Release a write-back claim without retiring the copy: a shadow
    /// claim just drops its flag (the copy never left `Resident`; it stays
    /// dirty), a `Busy` claim restores `Resident` dirty and reopens the
    /// word.
    fn unclaim_nvm_writeback(&self, desc: &SharedPageDesc, victim: FrameId, shadow: bool) {
        if shadow {
            let mut st = desc.state.lock();
            st.shadow_nvm = false;
            desc.cond.notify_all();
        } else {
            self.restore_nvm_resident(desc, victim, true);
        }
    }

    /// Restore a claimed NVM copy to `Resident` (after a failed or
    /// non-evicting operation) and wake waiters.
    fn restore_nvm_resident(&self, desc: &SharedPageDesc, victim: FrameId, dirty: bool) {
        let mut st = desc.state.lock();
        st.nvm = Some(CopyState::Resident {
            frame: FrameRef::Full(victim),
            pins: 0,
            dirty,
        });
        Self::reopen_nvm_word(desc, &st);
        desc.cond.notify_all();
    }

    /// Complete an NVM eviction whose content is already durable on SSD
    /// (clean copy, or dirty copy written back and synced): clear the
    /// frame header, empty the slot, free the frame.
    pub(super) fn finish_nvm_eviction(&self, desc: &SharedPageDesc, victim: FrameId) {
        let _ = self.nvm_pool().clear_frame_header(victim);
        let mut st = desc.state.lock();
        st.nvm = None;
        desc.cond.notify_all();
        drop(st);
        self.nvm_pool().free(victim);
        self.metrics.record_nvm_eviction();
    }

    /// Evict the NVM copy of `desc` if it occupies `victim` and is
    /// evictable (paths ⑤ / discard).
    fn try_evict_nvm(&self, desc: &SharedPageDesc, victim: FrameId) -> bool {
        let Some((dirty, token)) = self.claim_nvm_victim(desc, victim) else {
            return false;
        };
        let evict_t = obs::op_start();
        if dirty {
            let page = self.config.page_size;
            // The SSD image must be *synced* before the NVM frame header is
            // cleared: the header is what recovery uses to find this page in
            // NVM, so dropping it while the SSD copy is still in the volatile
            // write cache would lose the page on a crash. (Under a shadow
            // claim the bytes may additionally be torn by a racing writer —
            // the commit below discards the write-back in that case, and the
            // retained header keeps the NVM copy authoritative.)
            let res = with_page_buf(page, |buf| -> Result<()> {
                self.nvm_pool()
                    .read(victim, 0, buf, AccessPattern::Sequential)?;
                retry_device_io(&self.metrics, "nvm write-back", || {
                    self.ssd.write_page(desc.pid.0, buf)?;
                    self.ssd.sync()
                })?;
                Ok(())
            });
            if res.is_err() {
                self.unclaim_nvm_writeback(desc, victim, token.is_some());
                return false;
            }
            if let Some(token) = &token {
                if !self.commit_nvm_shadow(desc, victim, token) {
                    return false;
                }
            }
            self.metrics.record_migration(MigrationPath::NvmToSsd);
            obs::record_op(Op::MigNvmToSsd, evict_t, desc.pid.0, "ssd");
        }
        self.finish_nvm_eviction(desc, victim);
        obs::record_op(Op::EvictNvm, evict_t, desc.pid.0, "nvm");
        true
    }

    /// Write claimed NVM copies back to SSD as one batch — the routine
    /// shared by maintenance eviction and [`Self::flush_nvm_dirty`]. The
    /// page images are staged and submitted as one sorted multi-page write
    /// ([`SsdDevice::write_pages`] — coalesced into few large direct-I/O
    /// submissions on the file backend), then one sync barrier makes the
    /// whole batch durable. Returns the claims whose SSD images are now
    /// durable, still claimed for the caller to settle, plus the first
    /// error. A claim whose NVM read fails is released at once; a failed
    /// write or sync releases every claim with its copy still dirty
    /// (nothing was retired, so the retry is idempotent). `write_retries`
    /// bounds the retries of the write submission.
    pub(super) fn write_back_nvm(
        &self,
        claims: Vec<NvmClaim>,
        write_retries: u32,
    ) -> (Vec<NvmClaim>, Option<BufferError>) {
        let page = self.config.page_size;
        let mut staged: Vec<(NvmClaim, Vec<u8>)> = Vec::with_capacity(claims.len());
        let mut first_err = None;
        for (desc, victim, token) in claims {
            let mut buf = vec![0u8; page];
            match self
                .nvm_pool()
                .read(victim, 0, &mut buf, AccessPattern::Sequential)
            {
                Ok(()) => staged.push(((desc, victim, token), buf)),
                Err(e) => {
                    self.unclaim_nvm_writeback(&desc, victim, token.is_some());
                    first_err.get_or_insert(e);
                }
            }
        }
        if staged.is_empty() {
            return (Vec::new(), first_err);
        }
        let mut submission: Vec<(u64, &[u8])> = staged
            .iter()
            .map(|((desc, _, _), buf)| (desc.pid.0, buf.as_slice()))
            .collect();
        let res = retry_device_io_n(&self.metrics, "nvm batch write-back", write_retries, || {
            self.ssd.write_pages(&mut submission).map(|_| ())
        })
        .and_then(|()| retry_device_io(&self.metrics, "nvm batch sync", || self.ssd.sync()));
        drop(submission);
        let claims = staged.into_iter().map(|(claim, _)| claim);
        match res {
            Ok(()) => (claims.collect(), first_err),
            Err(e) => {
                for (desc, victim, token) in claims {
                    self.unclaim_nvm_writeback(&desc, victim, token.is_some());
                }
                (Vec::new(), Some(e))
            }
        }
    }

    /// Write back up to `max` dirty NVM-resident pages to SSD in one batch
    /// (single fsync), marking them clean but keeping them resident. This
    /// is what lets the WAL truncate past NVM-resident dirty pages: after
    /// the sync their SSD images are durable, so replay no longer needs
    /// the log records that produced them. Pages with a dirty (or
    /// in-transition) DRAM copy are skipped — [`Self::flush_page`]
    /// reconciles those into NVM first. A shadow-claimed copy is marked
    /// clean only if it passes the shadow flush validation;
    /// one that raced a write stays dirty for a later flush. Returns the
    /// number written.
    pub fn flush_nvm_dirty(&self, max: usize) -> Result<usize> {
        if self.nvm.is_none() || max == 0 {
            return Ok(0);
        }
        let mut pids = Vec::new();
        self.mapping.for_each(|pid, _| pids.push(*pid));
        let mut claimed: Vec<NvmClaim> = Vec::new();
        for pid in pids {
            if claimed.len() >= max {
                break;
            }
            let Some(desc) = self.mapping.get(&pid) else {
                continue;
            };
            let Some(mut st) = desc.state.try_lock() else {
                continue;
            };
            if st.shadow_nvm || st.shadow_dram {
                continue;
            }
            // A dirty or transitioning DRAM copy shadows the NVM bytes.
            if matches!(
                &st.dram,
                Some(
                    CopyState::Loading
                        | CopyState::Busy { .. }
                        | CopyState::Resident { dirty: true, .. }
                )
            ) {
                continue;
            }
            let Some(CopyState::Resident {
                frame,
                pins: 0,
                dirty: true,
            }) = &st.nvm
            else {
                continue;
            };
            let victim = frame.frame();
            if let Some(token) = Self::claim_nvm_locked(&desc, &mut st, victim, true) {
                drop(st);
                claimed.push((desc, victim, token));
            }
        }
        if claimed.is_empty() {
            return Ok(0);
        }
        let (written, err) = self.write_back_nvm(claimed, IO_RETRY_LIMIT);
        let mut n = 0usize;
        for (desc, victim, token) in written {
            let clean = match &token {
                Some(token) => {
                    let mut st = desc.state.lock();
                    let clean =
                        self.settle_shadow(&desc, &mut st, false, token, ShadowPath::Flush, true);
                    if let (true, Some(CopyState::Resident { dirty, .. })) = (clean, &mut st.nvm) {
                        *dirty = false;
                    }
                    clean
                }
                None => {
                    self.restore_nvm_resident(&desc, victim, false);
                    true
                }
            };
            n += usize::from(clean);
        }
        self.metrics.record_maint_writebacks(n as u64);
        err.map_or(Ok(n), Err)
    }

    /// Write the dirty DRAM copy of `pid` down to SSD without evicting it
    /// (checkpointer; paper §5.2 Recovery: DRAM pages are flushed for log
    /// truncation, NVM pages are not because NVM is persistent). Returns
    /// `true` if a flush happened; pinned or busy pages are skipped.
    ///
    /// The flush is a shadow write-back: the copy's pin word is never
    /// closed, so hit-path readers never stall behind the device write +
    /// sync. The copy is marked clean only if the flushed image passes
    /// the shadow validation — no pin outstanding and no
    /// version bump since the copy began. Otherwise the page stays dirty
    /// and the caller gets `Ok(false)`: the checkpointer must treat a
    /// raced flush as *not flushed*, because the synced SSD image may be
    /// torn or stale and must not let the WAL truncate past this page.
    pub fn flush_page(&self, pid: PageId) -> Result<bool> {
        let Some(desc) = self.mapping.get(&pid.0) else {
            return Ok(false);
        };
        let mut st = desc.state.lock();
        if st.shadow_dram || st.shadow_nvm {
            // A shadow operation owns this page's transitions right now;
            // the checkpointer will come back.
            return Ok(false);
        }
        // Fine-grained copies flush through their NVM backing on eviction;
        // the NVM copy is persistent already.
        let Some(CopyState::Resident {
            frame: FrameRef::Full(frame),
            pins: 0,
            dirty: true,
        }) = &st.dram
        else {
            return Ok(false);
        };
        let frame = *frame;
        // If the page also has an NVM copy, reconcile into NVM instead of
        // SSD — the NVM copy may be stale relative to DRAM, and leaving it
        // stale-dirty would shadow the flushed version after the clean DRAM
        // copy is discarded. This also matches the paper's recovery
        // protocol: NVM-resident modified pages are not flushed to SSD
        // because NVM is persistent.
        let nvm_target = match &st.nvm {
            Some(CopyState::Resident {
                frame: nf, pins: 0, ..
            }) => Some(nf.frame()),
            Some(_) => return Ok(false), // NVM copy pinned or in transition
            None => None,
        };
        let Some(token) = desc.dram_pin.shadow_begin() else {
            return Ok(false);
        };
        st.shadow_dram = true;
        if let Some(nf) = nvm_target {
            // The reconcile target is exclusively ours for the duration.
            st.nvm = Some(CopyState::Busy {
                frame: FrameRef::Full(nf),
                pins: 0,
                dirty: true,
            });
        }
        drop(st);
        let res = match nvm_target {
            Some(nf) => self.write_dram_copy_to_nvm(frame, nf, None),
            // A flush is a durability point (checkpoints and catalog writes
            // rely on it), so it must survive a crash: sync.
            None => self
                .write_dram_copy_to_ssd(&desc, frame)
                .and_then(|()| retry_device_io(&self.metrics, "flush sync", || self.ssd.sync())),
        };
        let mut st = desc.state.lock();
        if let Some(nf) = nvm_target {
            // Dirty regardless of outcome: the NVM copy now holds either
            // the reconciled bytes (which supersede its old content) or a
            // torn/partial merge — in both cases it must be written down
            // before being discarded.
            st.nvm = Some(CopyState::Resident {
                frame: FrameRef::Full(nf),
                pins: 0,
                dirty: true,
            });
        }
        let clean =
            self.settle_shadow(&desc, &mut st, true, &token, ShadowPath::Flush, res.is_ok());
        if let (true, Some(CopyState::Resident { dirty, .. })) = (clean, &mut st.dram) {
            *dirty = false;
        }
        drop(st);
        res.map(|()| clean)
    }

    /// Flush every dirty, unpinned DRAM page to SSD. Returns the number of
    /// pages flushed.
    pub fn flush_all_dirty(&self) -> Result<usize> {
        let mut pids = Vec::new();
        self.mapping.for_each(|pid, _| pids.push(PageId(*pid)));
        let mut flushed = 0;
        for pid in pids {
            if self.flush_page(pid)? {
                flushed += 1;
            }
        }
        Ok(flushed)
    }
}
