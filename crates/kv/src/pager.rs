//! The block allocator: refcounted pages shared across per-sequence page
//! lists over one free list, with reservation-aware accounting and
//! conservation counters.
//!
//! Page ids are minted on first use: the pool keeps one record (refs,
//! pins, written extent, tier) per id handed out so far, and takes the
//! last freed id or, when none is free, mints the next, so ids come out
//! 0, 1, 2, … and are recycled last-freed-first. Nothing is sized by the
//! pool's capacity: [`PagedKvCache::check_invariants`] costs the pages a
//! run has held.
//!
//! Pages are *refcounted*: a page normally has one owner, but prefix
//! caching admits new sequences onto pages another sequence already wrote
//! ([`PagedKvCache::alloc_shared`]) and lets an external index pin pages
//! past sequence lifetime ([`PagedKvCache::retain_pages`] /
//! [`PagedKvCache::release_pages`]). A page returns to the free list only
//! when its last reference drops; a sequence that grows into a partially
//! written *shared* page first gets a private copy (copy-on-write), so
//! sharers never observe each other's writes.
//!
//! Pools may carry a *host tier* ([`KvConfig::host_pages`]): swap-to-host
//! preemption moves a victim's exclusively-held pages across the PCIe
//! link instead of discarding them. A swapped page keeps its id, refcount
//! and written slots — only its [`PageLocation`] flips — while its device
//! frame becomes reusable, so the id space is `num_pages + host_pages`
//! wide and the tier counters (`device ≤ num_pages`, `host ≤ host_pages`)
//! carry the capacity constraints. Host-resident pages are storage, not
//! cache: a sequence holding one cannot extend ([`KvError::SwappedOut`]),
//! cannot donate it to a shared admission, and cannot have it pinned —
//! [`PagedKvCache::swap_in`] brings everything back before the sequence
//! decodes again.

use crate::config::KvConfig;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// Identifier the caller assigns to one sequence (request).
pub type SeqId = u64;

/// Hashes a [`SeqId`] with one multiply (Fibonacci hashing), folding the
/// well-mixed high half into the low bits the table indexes by. Only the
/// id API hashes, once per call to find a sequence's row; a [`SeqSlot`]
/// skips the map. Ids are caller-chosen, not adversarial, and nothing
/// depends on the map's iteration order.
#[derive(Default)]
struct SeqIdHasher(u64);

impl Hasher for SeqIdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0.rotate_left(8) ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, id: u64) {
        let h = id.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = h ^ (h >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The id → row map of the [`SeqTable`].
type SeqIndex = HashMap<SeqId, u32, BuildHasherDefault<SeqIdHasher>>;

/// A handle to one live sequence's row of a [`PagedKvCache`]: the row and
/// the id it was issued for ([`PagedKvCache::slot`]). The slot methods
/// index the row directly and check the id, so a slot that outlives its
/// sequence (freed or preempted) is refused, also after another sequence
/// has taken the row. A slot stays valid while its sequence holds the
/// row: across growth, sparsity eviction, swap-out and swap-in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeqSlot {
    row: u32,
    seq: SeqId,
}

/// Physical page identifier inside one pool.
pub type PageId = u32;

/// Why a KV-cache operation failed. Allocation failures leave the pool
/// unchanged — an admission signal, not a partial state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvError {
    /// Not enough free pages for the requested allocation/extension.
    OutOfPages {
        /// Pages the operation needed.
        needed: usize,
        /// Pages currently free.
        free: usize,
    },
    /// `alloc` for a sequence that already holds pages.
    AlreadyAllocated(SeqId),
    /// `extend`/`free` for a sequence that holds no pages (catches
    /// double-frees: the second `free` of a sequence returns this).
    UnknownSeq(SeqId),
    /// `alloc_shared`/`retain_pages`/`release_pages` referenced a page
    /// that is not live (or, for release, not externally retained), or the
    /// shared page list does not cover the claimed prefix tokens.
    InvalidShare,
    /// Not enough free host-tier frames for a `swap_out`.
    OutOfHostPages {
        /// Host frames the swap needed.
        needed: usize,
        /// Host frames currently free.
        free: usize,
    },
    /// `swap_out` referenced a page the sequence does not exclusively
    /// hold on the device tier (shared, pinned, already swapped, free, or
    /// simply not in its page table), or listed a page twice.
    InvalidSwap,
    /// `extend` on a sequence holding host-resident pages — swapped-out
    /// KV cannot be written until `swap_in` restores it.
    SwappedOut(SeqId),
    /// `release_seq_pages` referenced a page the sequence cannot evict:
    /// not in its page table, listed twice, host-resident, or not a fully
    /// written interior page (the partially filled tail is still being
    /// appended to).
    InvalidEvict,
}

impl fmt::Display for KvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KvError::OutOfPages { needed, free } => {
                write!(f, "out of KV pages: need {needed}, only {free} free")
            }
            KvError::AlreadyAllocated(s) => write!(f, "sequence {s} already allocated"),
            KvError::UnknownSeq(s) => write!(f, "sequence {s} holds no pages"),
            KvError::InvalidShare => write!(f, "shared pages are not live or do not cover prefix"),
            KvError::OutOfHostPages { needed, free } => {
                write!(f, "out of host pages: need {needed}, only {free} free")
            }
            KvError::InvalidSwap => {
                write!(f, "swap pages must be exclusively held and device-resident")
            }
            KvError::SwappedOut(s) => write!(f, "sequence {s} holds host-resident pages"),
            KvError::InvalidEvict => {
                write!(
                    f,
                    "evicted pages must be fully written, device-resident interior pages of \
                     the sequence"
                )
            }
        }
    }
}

/// Which memory tier a page currently occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageLocation {
    /// On the GPU: readable by decode, writable by prefill/extend.
    Device,
    /// In the host staging pool: preserved but inert until swapped back.
    Host,
}

/// One page id's record, minted the first time the id is handed out.
#[derive(Debug)]
struct Page {
    /// Page-table occurrences plus pins; 0 = on the free list.
    refs: u32,
    /// External retains (a prefix index's pins); always `<= refs`.
    pins: u32,
    /// Written token slots, counted once however many sequences share it.
    written: u32,
    /// Tier the page occupies (free pages read `Device`).
    location: PageLocation,
}

impl Page {
    /// A free page, and what an id never handed out reads as.
    const FREE: Page = Page {
        refs: 0,
        pins: 0,
        written: 0,
        location: PageLocation::Device,
    };
}

/// Pages one live sequence holds: one row of the [`SeqTable`].
#[derive(Debug, Clone)]
struct SeqPages {
    /// The sequence holding the row (what a [`SeqSlot`]'s id must match).
    seq: SeqId,
    /// Physical page ids, in token order (the page table). Prefix pages
    /// may be shared with other sequences or with an external index. No
    /// page appears twice: new pages come off the free list, and
    /// `alloc_shared` refuses a list that repeats one.
    pages: Vec<PageId>,
    /// Token slots this sequence considers written (cached context
    /// length), including any shared prefix.
    used_tokens: usize,
    /// Token slots reserved (`>= used_tokens`; pages cover this).
    reserved_tokens: usize,
    /// Pages of `pages` resident on the host tier (0 = decodable), so
    /// residency checks never scan the page table.
    host_pages: usize,
}

/// The live sequences' page tables: rows of a `Vec`, with the id → row map
/// beside them. A freed row goes on the vacant list and the next new
/// sequence takes it, so the rows number the peak of live sequences,
/// whatever the ids or the count of sequences served.
#[derive(Debug, Default)]
struct SeqTable {
    /// One row per live sequence, `None` while vacant.
    rows: Vec<Option<SeqPages>>,
    /// Vacant rows, taken last-freed-first.
    vacant: Vec<u32>,
    /// The row of each live sequence.
    index: SeqIndex,
}

impl SeqTable {
    /// The slot of live sequence `seq`: one map lookup.
    #[inline]
    fn slot(&self, seq: SeqId) -> Option<SeqSlot> {
        self.index.get(&seq).map(|&row| SeqSlot { row, seq })
    }

    /// The row `slot` names, while it still holds the slot's sequence.
    #[inline]
    fn at(&self, slot: SeqSlot) -> Option<&SeqPages> {
        self.rows
            .get(slot.row as usize)?
            .as_ref()
            .filter(|s| s.seq == slot.seq)
    }

    /// [`SeqTable::at`], mutably.
    #[inline]
    fn at_mut(&mut self, slot: SeqSlot) -> Option<&mut SeqPages> {
        self.rows
            .get_mut(slot.row as usize)?
            .as_mut()
            .filter(|s| s.seq == slot.seq)
    }

    /// The row of live sequence `seq`.
    fn get(&self, seq: SeqId) -> Option<&SeqPages> {
        self.at(self.slot(seq)?)
    }

    /// The row of live sequence `seq`, mutably.
    fn get_mut(&mut self, seq: SeqId) -> Option<&mut SeqPages> {
        let slot = self.slot(seq)?;
        self.at_mut(slot)
    }

    /// Whether `seq` holds a row.
    fn contains(&self, seq: SeqId) -> bool {
        self.index.contains_key(&seq)
    }

    /// Gives `s`, whose sequence the table does not hold, a row: the last
    /// vacated one, or a new one when none is vacant.
    fn insert(&mut self, s: SeqPages) {
        let seq = s.seq;
        let row = match self.vacant.pop() {
            Some(row) => {
                self.rows[row as usize] = Some(s);
                row
            }
            None => {
                self.rows.push(Some(s));
                u32::try_from(self.rows.len() - 1).expect("fewer than 2^32 live sequences")
            }
        };
        self.index.insert(seq, row);
    }

    /// Takes `seq`'s row out of the table, leaving it vacant.
    fn remove(&mut self, seq: SeqId) -> Option<SeqPages> {
        let row = self.index.remove(&seq)?;
        self.vacant.push(row);
        self.rows[row as usize].take()
    }

    /// Number of live sequences.
    fn len(&self) -> usize {
        self.index.len()
    }

    /// The live rows, in row order.
    fn iter(&self) -> impl Iterator<Item = &SeqPages> {
        self.rows.iter().flatten()
    }
}

/// A paged KV cache: fixed-size token pages handed out from a free list,
/// with per-page reference counts. Page ids are minted on first use and
/// recycled last-freed-first (see the [module docs](crate::pager)).
///
/// Each live sequence holds one row of the pool's sequence table; a row a
/// sequence frees is taken by the next, so the rows number the peak of
/// live sequences. The id methods find a row through an id → row map,
/// then run the same code as the slot methods: [`PagedKvCache::slot`]
/// hands the row out as a [`SeqSlot`], and [`PagedKvCache::slot_tokens`]
/// and [`PagedKvCache::extend_slot`] index it directly, which is how a
/// decode step reads and grows each running sequence once.
///
/// Continuous batching allocates pages on demand (`alloc` the prompt, then
/// `extend` by one token per decode step); static padded baselines reserve
/// their worst case up front (`alloc_reserved`); prefix caching admits
/// sequences onto already-written pages (`alloc_shared`) and pins prompt
/// pages past sequence lifetime (`retain_pages`). The accounting separates
/// *used* token slots (written once, however many sequences share the
/// page) from *reserved* ones so [`PagedKvCache::fragmentation`] exposes
/// exactly the waste the paging design removes.
#[derive(Debug)]
pub struct PagedKvCache {
    cfg: KvConfig,
    /// Freed page ids (LIFO — recently freed pages are reused first, the
    /// cache-friendly order). A new id is minted only when it is empty.
    free: Vec<PageId>,
    /// Live sequences and their page tables.
    seqs: SeqTable,
    /// One record per id minted so far (`len() <= cfg.total_ids()`).
    records: Vec<Page>,
    live_pages: usize,
    /// Live pages resident on the device tier (`<= cfg.num_pages`).
    device_live: usize,
    /// Live pages resident on the host tier (`<= cfg.host_pages`).
    host_live: usize,
    used_tokens: usize,
    reserved_tokens: usize,
    // Conservation + observability counters.
    allocated_total: u64,
    freed_total: u64,
    peak_live_pages: usize,
    peak_host_live: usize,
    alloc_failures: u64,
    preemptions: u64,
    cow_copies: u64,
    shared_admits: u64,
    swapped_out_total: u64,
    swapped_in_total: u64,
    sparsity_evicted: u64,
}

/// Raises `p`'s written extent to `extent` slots (monotone — a sharer can
/// never shrink another sharer's written slots), keeping `used_tokens` the
/// page sum. This and [`mark_range`] take the two fields rather than the
/// pool, so a caller holding a sequence's page table can mark it in place.
fn note_written(records: &mut [Page], used_tokens: &mut usize, p: PageId, extent: usize) {
    let w = &mut records[p as usize].written;
    if extent as u32 > *w {
        *used_tokens += extent - *w as usize;
        *w = extent as u32;
    }
}

/// Marks token range `[from, to)` of a page table with `ps`-slot pages as
/// written.
fn mark_range(
    records: &mut [Page],
    used_tokens: &mut usize,
    pages: &[PageId],
    ps: usize,
    from: usize,
    to: usize,
) {
    if to <= from {
        return;
    }
    let (first, last) = (from / ps, (to - 1) / ps);
    for (i, &p) in pages[first..=last].iter().enumerate() {
        let extent = (to - (first + i) * ps).min(ps);
        note_written(records, used_tokens, p, extent);
    }
}

/// The positions of `pages` in `table`, ascending, or `None` when a page
/// is not in the table or is listed twice. Pages listed in table order,
/// as a caller picking them by `evict_positions` lists them, are found by
/// one merge walk; any other order is looked up in the table sorted by
/// page. A table holds each page at most once, so a page has one
/// position.
fn table_positions(table: &[PageId], pages: &[PageId]) -> Option<Vec<usize>> {
    let mut at = Vec::with_capacity(pages.len());
    let mut from = 0;
    for &p in pages {
        let Some(i) = table[from..].iter().position(|&q| q == p) else {
            break;
        };
        at.push(from + i);
        from += i + 1;
    }
    if at.len() == pages.len() {
        return Some(at);
    }
    let mut by_page: Vec<(PageId, usize)> = table.iter().copied().zip(0..).collect();
    by_page.sort_unstable();
    at.clear();
    for &p in pages {
        let k = by_page.binary_search_by_key(&p, |&(q, _)| q).ok()?;
        at.push(by_page[k].1);
    }
    at.sort_unstable();
    if at.windows(2).any(|w| w[0] == w[1]) {
        return None;
    }
    Some(at)
}

impl PagedKvCache {
    /// An empty pool: no id minted, every frame free. With a host tier,
    /// page *ids* outnumber device frames by `host_pages` — ids are
    /// identities, frames are capacity, and swap is what separates them.
    pub fn new(cfg: KvConfig) -> Self {
        PagedKvCache {
            cfg,
            free: Vec::new(),
            seqs: SeqTable::default(),
            records: Vec::new(),
            live_pages: 0,
            device_live: 0,
            host_live: 0,
            used_tokens: 0,
            reserved_tokens: 0,
            allocated_total: 0,
            freed_total: 0,
            peak_live_pages: 0,
            peak_host_live: 0,
            alloc_failures: 0,
            preemptions: 0,
            cow_copies: 0,
            shared_admits: 0,
            swapped_out_total: 0,
            swapped_in_total: 0,
            sparsity_evicted: 0,
        }
    }

    /// The pool geometry.
    pub fn config(&self) -> &KvConfig {
        &self.cfg
    }

    /// Whether `tokens` more slots could be allocated right now — the
    /// scheduler's admission signal.
    pub fn can_admit(&self, tokens: usize) -> bool {
        self.cfg.pages_for(tokens) <= self.device_free()
    }

    /// Free *device* frames — the capacity new allocations draw on. Ids
    /// always cover this (ids = device frames + host frames), so a free
    /// frame guarantees a free or mintable id.
    fn device_free(&self) -> usize {
        self.cfg.num_pages - self.device_live
    }

    /// Id `p`'s record; an id never handed out reads as a free page.
    fn record(&self, p: PageId) -> &Page {
        self.records.get(p as usize).unwrap_or(&Page::FREE)
    }

    /// Hands out one page on the device tier with its first reference:
    /// the last freed id, or a newly minted one when none is free.
    fn take_page(&mut self) -> PageId {
        debug_assert!(self.device_free() > 0, "caller checked the frame count");
        let p = self.free.pop().unwrap_or_else(|| {
            self.records.push(Page::FREE);
            (self.records.len() - 1) as PageId
        });
        self.records[p as usize].refs = 1;
        self.live_pages += 1;
        self.device_live += 1;
        self.allocated_total += 1;
        p
    }

    /// Drops one reference to `p`; at zero the page returns to the free
    /// list (from whichever tier held it). Returns whether the page was
    /// physically freed.
    fn drop_ref(&mut self, p: PageId) -> bool {
        let page = &mut self.records[p as usize];
        page.refs -= 1;
        if page.refs > 0 {
            return false;
        }
        self.used_tokens -= page.written as usize;
        match page.location {
            PageLocation::Device => self.device_live -= 1,
            PageLocation::Host => self.host_live -= 1,
        }
        *page = Page::FREE;
        self.free.push(p);
        self.live_pages -= 1;
        self.freed_total += 1;
        true
    }

    /// Allocates pages for a new sequence holding `tokens` written slots.
    /// Returns the number of pages taken.
    pub fn alloc(&mut self, seq: SeqId, tokens: usize) -> Result<usize, KvError> {
        self.alloc_reserved(seq, tokens, tokens)
    }

    /// Allocates pages covering `reserved_tokens` slots of which only
    /// `used_tokens` are written — how a static baseline's worst-case
    /// contiguous reservation is modelled. Fails atomically.
    pub fn alloc_reserved(
        &mut self,
        seq: SeqId,
        used_tokens: usize,
        reserved_tokens: usize,
    ) -> Result<usize, KvError> {
        let reserved_tokens = reserved_tokens.max(used_tokens);
        if self.seqs.contains(seq) {
            return Err(KvError::AlreadyAllocated(seq));
        }
        let needed = self.cfg.pages_for(reserved_tokens);
        if needed > self.device_free() {
            self.alloc_failures += 1;
            return Err(KvError::OutOfPages {
                needed,
                free: self.device_free(),
            });
        }
        let pages: Vec<PageId> = (0..needed).map(|_| self.take_page()).collect();
        let ps = self.cfg.page_size;
        mark_range(
            &mut self.records,
            &mut self.used_tokens,
            &pages,
            ps,
            0,
            used_tokens,
        );
        self.reserved_tokens += reserved_tokens;
        self.peak_live_pages = self.peak_live_pages.max(self.live_pages);
        self.seqs.insert(SeqPages {
            seq,
            pages,
            used_tokens,
            reserved_tokens,
            host_pages: 0,
        });
        Ok(needed)
    }

    /// Admits a new sequence directly onto `shared` — pages another
    /// sequence (or the prefix index) already holds, whose first
    /// `prefix_tokens` slots are written. Each page's refcount is bumped;
    /// no fresh pages are taken, so shared admission never runs out of
    /// pages. Returns the number of pages shared.
    ///
    /// `shared` must cover exactly `prefix_tokens` slots
    /// (`pages_for(prefix_tokens) == shared.len()`), every page must be
    /// live and listed once (one page cannot hold two positions' KV), and
    /// every page's *written* extent must actually cover its share of the
    /// prefix — a sequence can only adopt KV that was computed; otherwise
    /// [`KvError::InvalidShare`]. The sequence grows
    /// past the prefix with [`PagedKvCache::extend`] as usual — growth
    /// into a partially written shared page copies it first
    /// (copy-on-write).
    pub fn alloc_shared(
        &mut self,
        seq: SeqId,
        shared: &[PageId],
        prefix_tokens: usize,
    ) -> Result<usize, KvError> {
        if self.seqs.contains(seq) {
            return Err(KvError::AlreadyAllocated(seq));
        }
        let ps = self.cfg.page_size;
        let mut pages = shared.to_vec();
        pages.sort_unstable();
        let repeated = pages.windows(2).any(|w| w[0] == w[1]);
        if prefix_tokens == 0
            || repeated
            || self.cfg.pages_for(prefix_tokens) != shared.len()
            || shared.iter().enumerate().any(|(i, &p)| {
                let r = self.record(p);
                r.refs == 0
                    || r.location != PageLocation::Device
                    || (r.written as usize) < (prefix_tokens - i * ps).min(ps)
            })
        {
            return Err(KvError::InvalidShare);
        }
        for &p in shared {
            self.records[p as usize].refs += 1;
        }
        pages.copy_from_slice(shared);
        self.reserved_tokens += prefix_tokens;
        self.shared_admits += 1;
        self.seqs.insert(SeqPages {
            seq,
            pages,
            used_tokens: prefix_tokens,
            reserved_tokens: prefix_tokens,
            host_pages: 0,
        });
        Ok(shared.len())
    }

    /// Pins `pages` with one external reference each (the prefix index
    /// adopting published prompt pages). Every page must be live and
    /// device-resident — the index only ever adopts pages whose KV a
    /// later admission could read.
    pub fn retain_pages(&mut self, pages: &[PageId]) -> Result<(), KvError> {
        if pages.iter().any(|&p| {
            let r = self.record(p);
            r.refs == 0 || r.location != PageLocation::Device
        }) {
            return Err(KvError::InvalidShare);
        }
        for &p in pages {
            let r = &mut self.records[p as usize];
            r.refs += 1;
            r.pins += 1;
        }
        Ok(())
    }

    /// Drops one external reference per page (the prefix index evicting);
    /// pages whose last reference drops return to the free list. Returns
    /// the number of pages physically freed. Fails atomically with
    /// [`KvError::InvalidShare`] if any page lacks an external reference.
    pub fn release_pages(&mut self, pages: &[PageId]) -> Result<usize, KvError> {
        // Each listed page gives up one pin as it is checked, so a page
        // listed more often than it is pinned runs out of pins; the first
        // page without one puts the pins taken so far back.
        for (i, &p) in pages.iter().enumerate() {
            match self.records.get_mut(p as usize) {
                Some(r) if r.pins > 0 => r.pins -= 1,
                _ => {
                    for &q in &pages[..i] {
                        self.records[q as usize].pins += 1;
                    }
                    return Err(KvError::InvalidShare);
                }
            }
        }
        let mut freed = 0;
        for &p in pages {
            if self.drop_ref(p) {
                freed += 1;
            }
        }
        Ok(freed)
    }

    /// Grows a sequence by `new_tokens` written slots, allocating pages
    /// only when growth crosses the reservation's page boundary. Returns
    /// the pages newly taken (usually 0 — decode allocates one page every
    /// `page_size` steps; a copy-on-write of a shared boundary page counts
    /// as one taken page). Fails atomically on page exhaustion.
    ///
    /// The sequence's row lookup, then [`PagedKvCache::extend_slot`].
    #[inline]
    pub fn extend(&mut self, seq: SeqId, new_tokens: usize) -> Result<usize, KvError> {
        let slot = self.slot(seq).ok_or(KvError::UnknownSeq(seq))?;
        self.extend_slot(slot, new_tokens)
    }

    /// [`PagedKvCache::extend`] of the sequence `slot` names, indexing its
    /// row directly. A slot whose sequence no longer holds the row fails
    /// with [`KvError::UnknownSeq`] and changes nothing.
    ///
    /// A decode token usually lands in the last page of the sequence's
    /// table, which it already holds alone. That case is inlined into the
    /// caller: it raises the page's written extent and the sequence's
    /// counts, with no integer division and no allocation. Everything else
    /// (growth that starts below the last page or leaves it, a shared tail
    /// page to copy, a swapped-out sequence, a stale slot) takes the
    /// out-of-line general path, with the same result.
    #[inline]
    pub fn extend_slot(&mut self, slot: SeqSlot, new_tokens: usize) -> Result<usize, KvError> {
        let ps = self.cfg.page_size;
        if let Some(s) = self.seqs.at_mut(slot) {
            if let Some(&last) = s.pages.last() {
                let base = (s.pages.len() - 1) * ps;
                let target = s.used_tokens + new_tokens;
                if s.host_pages == 0
                    && s.used_tokens >= base
                    && target <= base + ps
                    && self.records[last as usize].refs == 1
                {
                    if target > s.reserved_tokens {
                        self.reserved_tokens += target - s.reserved_tokens;
                        s.reserved_tokens = target;
                    }
                    s.used_tokens = target;
                    note_written(
                        &mut self.records,
                        &mut self.used_tokens,
                        last,
                        target - base,
                    );
                    return Ok(0);
                }
            }
        }
        self.extend_general(slot, new_tokens)
    }

    /// [`PagedKvCache::extend_slot`] for any growth: copy-on-write of a
    /// shared tail page, pages taken past the reservation, and every
    /// error.
    ///
    /// No allocation and no page-table scan unless a page is taken:
    /// residency is the sequence's host-page count, and the written
    /// extents of the touched pages are raised in place.
    #[cold]
    #[inline(never)]
    fn extend_general(&mut self, slot: SeqSlot, new_tokens: usize) -> Result<usize, KvError> {
        let free_len = self.device_free();
        let ps = self.cfg.page_size;
        let seq = slot.seq;
        let s = self.seqs.at_mut(slot).ok_or(KvError::UnknownSeq(seq))?;
        if s.host_pages > 0 {
            // Swapped-out KV is storage, not cache: restore first.
            return Err(KvError::SwappedOut(seq));
        }
        if new_tokens == 0 {
            return Ok(0);
        }
        let used = s.used_tokens;
        let shared_boundary = (used % ps != 0)
            .then_some(used / ps)
            .filter(|&bi| self.records[s.pages[bi] as usize].refs > 1);
        let target_used = used + new_tokens;
        let target_reserved = s.reserved_tokens.max(target_used);
        let extra = self
            .cfg
            .pages_for(target_reserved)
            .saturating_sub(s.pages.len());
        let cow = usize::from(shared_boundary.is_some());
        if extra + cow > free_len {
            self.alloc_failures += 1;
            return Err(KvError::OutOfPages {
                needed: extra + cow,
                free: free_len,
            });
        }
        self.reserved_tokens += target_reserved - s.reserved_tokens;
        s.used_tokens = target_used;
        s.reserved_tokens = target_reserved;
        if extra + cow == 0 {
            mark_range(
                &mut self.records,
                &mut self.used_tokens,
                &s.pages,
                ps,
                used,
                target_used,
            );
            return Ok(0);
        }
        // Taking pages needs the whole pool, so the table is lifted out of
        // the row for the duration and put back once.
        let mut pages = std::mem::take(&mut s.pages);
        // Copy-on-write: the sequence is about to write into a partially
        // filled page other holders also reference, so it gets a private
        // copy of its prefix slots first. The shared page is untouched.
        if let Some(bi) = shared_boundary {
            let fresh = self.take_page();
            note_written(&mut self.records, &mut self.used_tokens, fresh, used % ps);
            self.records[pages[bi] as usize].refs -= 1; // other sharers keep it live
            self.cow_copies += 1;
            pages[bi] = fresh;
        }
        for _ in 0..extra {
            pages.push(self.take_page());
        }
        mark_range(
            &mut self.records,
            &mut self.used_tokens,
            &pages,
            ps,
            used,
            target_used,
        );
        self.seqs.at_mut(slot).expect("checked above").pages = pages;
        self.peak_live_pages = self.peak_live_pages.max(self.live_pages);
        Ok(extra + cow)
    }

    /// Moves `pages` — each exclusively held by `seq` and device-resident
    /// — to the host tier, preserving ids, refcounts and written slots
    /// while releasing their device frames. Fails atomically: either
    /// every page moves or none does ([`KvError::InvalidSwap`] for an
    /// illegal page list, [`KvError::OutOfHostPages`] when the staging
    /// pool is full).
    ///
    /// Exclusivity (`refs == 1`) is required because a shared or
    /// prefix-pinned page's other holders still read it every iteration;
    /// the swap planner (`pit_swap::plan_swap_out`) never offers those.
    pub fn swap_out(&mut self, seq: SeqId, pages: &[PageId]) -> Result<(), KvError> {
        let s = self.seqs.get_mut(seq).ok_or(KvError::UnknownSeq(seq))?;
        // Each legal page flips to `Host` as it is checked, so a duplicate
        // fails the residency test; one pass over the page table then
        // counts the flips, and a foreign page is flipped but not counted.
        // O(seq pages + plan), nothing allocated; a refusal flips back.
        let mut flipped = 0;
        for &p in pages {
            match self.records.get_mut(p as usize) {
                Some(r) if r.refs == 1 && r.location == PageLocation::Device => {
                    r.location = PageLocation::Host;
                }
                _ => break,
            }
            flipped += 1;
        }
        let legal = flipped == pages.len()
            && s.pages
                .iter()
                .filter(|&&p| self.records[p as usize].location == PageLocation::Host)
                .count()
                == s.host_pages + pages.len();
        let free_host = self.cfg.host_pages - self.host_live;
        let refusal = if !legal {
            Some(KvError::InvalidSwap)
        } else if pages.len() > free_host {
            Some(KvError::OutOfHostPages {
                needed: pages.len(),
                free: free_host,
            })
        } else {
            None
        };
        if let Some(err) = refusal {
            for &p in &pages[..flipped] {
                self.records[p as usize].location = PageLocation::Device;
            }
            return Err(err);
        }
        s.host_pages += pages.len();
        self.device_live -= pages.len();
        self.host_live += pages.len();
        self.peak_host_live = self.peak_host_live.max(self.host_live);
        self.swapped_out_total += pages.len() as u64;
        Ok(())
    }

    /// Moves every host-resident page of `seq` back to the device tier,
    /// making the sequence decodable again. Returns the pages moved (0
    /// when the sequence was fully resident). Fails atomically with
    /// [`KvError::OutOfPages`] when the device tier lacks the frames.
    pub fn swap_in(&mut self, seq: SeqId) -> Result<usize, KvError> {
        let free = self.device_free();
        let s = self.seqs.get_mut(seq).ok_or(KvError::UnknownSeq(seq))?;
        let moved = s.host_pages;
        if moved == 0 {
            return Ok(0);
        }
        if moved > free {
            self.alloc_failures += 1;
            return Err(KvError::OutOfPages {
                needed: moved,
                free,
            });
        }
        for &p in &s.pages {
            self.records[p as usize].location = PageLocation::Device;
        }
        s.host_pages = 0;
        self.host_live -= moved;
        self.device_live += moved;
        self.swapped_in_total += moved as u64;
        Ok(moved)
    }

    /// Drops `seq`'s references to `pages` — a KV-sparsity policy
    /// (StreamingLLM/H2O-style retention in `pit_serve`) compacting a
    /// sequence's cache by evicting interior pages whose tokens the
    /// sequence will no longer attend. The pages leave the sequence's page
    /// table (order of the survivors preserved) and its cached context
    /// shrinks by `page_size` tokens per page; *physical* frames return to
    /// the free list only at refcount zero, so shared prefix pages and
    /// index-pinned pages survive for their other holders.
    ///
    /// Every listed page must be in the sequence's table, device-resident,
    /// listed once, and a *fully written interior* page — the partially
    /// filled tail is still being appended to, and a host-resident page is
    /// frozen storage a restore still needs. Fails atomically with
    /// [`KvError::InvalidEvict`] otherwise. Returns the pages physically
    /// freed (`<= pages.len()` when some were shared or pinned).
    pub fn release_seq_pages(&mut self, seq: SeqId, pages: &[PageId]) -> Result<usize, KvError> {
        if pages.is_empty() {
            return Ok(0);
        }
        let slot = self.slot(seq).ok_or(KvError::UnknownSeq(seq))?;
        let table = &self.seqs.at(slot).expect("the map names live rows").pages;
        let at = table_positions(table, pages).ok_or(KvError::InvalidEvict)?;
        self.release_slot_positions(slot, &at)
    }

    /// [`PagedKvCache::release_seq_pages`] for the sequence `slot` names,
    /// with the pages given by their positions in its page table, strictly
    /// ascending: the same checks and the same release, with no page
    /// lookup and nothing allocated. Fails atomically with
    /// [`KvError::InvalidEvict`] when a position is repeated, out of order
    /// or names no fully written device-resident page, and with
    /// [`KvError::UnknownSeq`] once that sequence no longer holds the row.
    pub fn release_slot_positions(
        &mut self,
        slot: SeqSlot,
        at: &[usize],
    ) -> Result<usize, KvError> {
        if at.is_empty() {
            return Ok(0);
        }
        let ps = self.cfg.page_size;
        let s = self
            .seqs
            .at_mut(slot)
            .ok_or(KvError::UnknownSeq(slot.seq))?;
        let full = s.used_tokens / ps;
        if at.windows(2).any(|w| w[0] >= w[1])
            || at.iter().any(|&i| {
                i >= full || self.records[s.pages[i] as usize].location != PageLocation::Device
            })
        {
            return Err(KvError::InvalidEvict);
        }
        let evicted = at.len();
        // Each evicted page held exactly `page_size` of the sequence's
        // cached (and reserved) slots, so both extents shrink page-aligned
        // and the tail page's partial fill is untouched.
        s.used_tokens -= evicted * ps;
        s.reserved_tokens -= evicted * ps;
        self.reserved_tokens -= evicted * ps;
        // The table leaves its row while its evicted pages drop their
        // references (in table order), and goes back compacted.
        let mut table = std::mem::take(&mut s.pages);
        let (mut pos, mut next, mut freed) = (0, 0, 0);
        table.retain(|&p| {
            let evict = at.get(next) == Some(&pos);
            pos += 1;
            if evict {
                next += 1;
                freed += usize::from(self.drop_ref(p));
            }
            !evict
        });
        self.seqs.at_mut(slot).expect("checked above").pages = table;
        self.sparsity_evicted += evicted as u64;
        Ok(freed)
    }

    /// Drops this sequence's reference to every page it holds (request
    /// completed); pages return to the free list only at refcount zero.
    /// Returns the pages physically freed; a second `free` of the same
    /// sequence is a double-free and fails with [`KvError::UnknownSeq`].
    pub fn free(&mut self, seq: SeqId) -> Result<usize, KvError> {
        let s = self.seqs.remove(seq).ok_or(KvError::UnknownSeq(seq))?;
        let mut freed = 0;
        for &p in &s.pages {
            if self.drop_ref(p) {
                freed += 1;
            }
        }
        self.reserved_tokens -= s.reserved_tokens;
        Ok(freed)
    }

    /// Frees a sequence because the scheduler evicted it to make room
    /// (its cache must be recomputed on re-admission). Same page
    /// accounting as [`PagedKvCache::free`], plus the preemption counter.
    pub fn preempt(&mut self, seq: SeqId) -> Result<usize, KvError> {
        let n = self.free(seq)?;
        self.preemptions += 1;
        Ok(n)
    }

    /// The slot of a live sequence: a handle to its row for
    /// [`PagedKvCache::slot_tokens`], [`PagedKvCache::extend_slot`] and
    /// [`PagedKvCache::release_slot_positions`], valid until the sequence
    /// is freed or preempted.
    #[inline]
    pub fn slot(&self, seq: SeqId) -> Option<SeqSlot> {
        self.seqs.slot(seq)
    }

    /// Cached context length of the sequence `slot` names; `None` once
    /// that sequence no longer holds the row.
    #[inline]
    pub fn slot_tokens(&self, slot: SeqSlot) -> Option<usize> {
        self.seqs.at(slot).map(|s| s.used_tokens)
    }

    /// Cached context length of a live sequence: its row lookup, then
    /// [`PagedKvCache::slot_tokens`].
    #[inline]
    pub fn seq_tokens(&self, seq: SeqId) -> Option<usize> {
        self.slot_tokens(self.slot(seq)?)
    }

    /// The page table of a live sequence, in token order.
    pub fn seq_pages(&self, seq: SeqId) -> Option<&[PageId]> {
        self.seqs.get(seq).map(|s| s.pages.as_slice())
    }

    /// Total references to `page` (sequence holders + external retains);
    /// 0 means the page is free.
    pub fn page_refs(&self, page: PageId) -> u32 {
        self.record(page).refs
    }

    /// External (index-pin) references to `page`.
    pub fn page_ext_refs(&self, page: PageId) -> u32 {
        self.record(page).pins
    }

    /// Tier `page` currently occupies (free pages read `Device`).
    pub fn page_location(&self, page: PageId) -> PageLocation {
        self.record(page).location
    }

    /// Host-resident pages a live sequence holds (0 = fully resident).
    pub fn seq_host_pages(&self, seq: SeqId) -> usize {
        self.seqs.get(seq).map_or(0, |s| s.host_pages)
    }

    /// Whether every page of a live sequence is device-resident — the
    /// precondition for it to appear in a decode step.
    pub fn seq_resident(&self, seq: SeqId) -> Option<bool> {
        self.seqs.get(seq).map(|s| s.host_pages == 0)
    }

    /// Live pages resident on the host tier.
    pub fn host_live_pages(&self) -> usize {
        self.host_live
    }

    /// Free host-tier frames.
    pub fn host_free_pages(&self) -> usize {
        self.cfg.host_pages - self.host_live
    }

    /// Fraction of the host tier's frames in use (0 when no host tier).
    pub fn host_occupancy(&self) -> f64 {
        if self.cfg.host_pages == 0 {
            return 0.0;
        }
        self.host_live as f64 / self.cfg.host_pages as f64
    }

    /// Written token slots of `page`.
    pub fn page_written(&self, page: PageId) -> usize {
        self.record(page).written as usize
    }

    /// Number of live sequences.
    pub fn num_seqs(&self) -> usize {
        self.seqs.len()
    }

    /// Pages currently allocated (refcount > 0).
    pub fn live_pages(&self) -> usize {
        self.live_pages
    }

    /// Device frames currently free — what admission and growth draw on.
    /// Frames, not ids: ids are minted on first use and recycled
    /// last-freed-first, and a host tier adds one id per host frame.
    pub fn free_pages(&self) -> usize {
        self.device_free()
    }

    /// Token slots physically written across live pages (shared slots
    /// count once).
    pub fn used_tokens(&self) -> usize {
        self.used_tokens
    }

    /// Pages currently referenced by more than one holder.
    pub fn shared_pages(&self) -> usize {
        self.records.iter().filter(|r| r.refs > 1).count()
    }

    /// Fraction of the *device* tier's frames currently allocated (0..=1).
    pub fn occupancy(&self) -> f64 {
        if self.cfg.num_pages == 0 {
            return 0.0;
        }
        self.device_live as f64 / self.cfg.num_pages as f64
    }

    /// Fraction of allocated token slots not holding a written token —
    /// last-page slack plus unused reservation. Paged on-demand allocation
    /// keeps this below `page_size / context`; worst-case reservation
    /// (static padded batching) drives it toward the padding-waste ratio.
    pub fn fragmentation(&self) -> f64 {
        let slots = self.live_pages * self.cfg.page_size;
        if slots == 0 {
            return 0.0;
        }
        1.0 - self.used_tokens as f64 / slots as f64
    }

    /// Counter snapshot.
    pub fn stats(&self) -> KvStats {
        KvStats {
            page_size: self.cfg.page_size,
            capacity_pages: self.cfg.num_pages,
            live_pages: self.live_pages,
            free_pages: self.device_free(),
            host_capacity_pages: self.cfg.host_pages,
            host_live_pages: self.host_live,
            peak_host_live_pages: self.peak_host_live,
            swapped_out_pages: self.swapped_out_total,
            swapped_in_pages: self.swapped_in_total,
            used_tokens: self.used_tokens,
            occupancy: self.occupancy(),
            fragmentation: self.fragmentation(),
            peak_live_pages: self.peak_live_pages,
            allocated_total: self.allocated_total,
            freed_total: self.freed_total,
            alloc_failures: self.alloc_failures,
            preemptions: self.preemptions,
            shared_pages: self.shared_pages(),
            cow_copies: self.cow_copies,
            shared_admits: self.shared_admits,
            sparsity_evicted_pages: self.sparsity_evicted,
        }
    }

    /// Checks the pool's conservation invariants; returns a description of
    /// the first violation. The proptest suite calls this after every
    /// operation. It passes once over the id map and the vacant rows, once
    /// over the sequences' page tables, once over the free list and once
    /// over the minted records, so its cost follows the sequences and the
    /// pages the run has held, not the pool's capacity.
    pub fn check_invariants(&self) -> Result<(), String> {
        // Fails the check with the formatted message unless `$ok` holds.
        macro_rules! ensure {
            ($ok:expr, $($msg:tt)+) => {
                if !$ok {
                    return Err(format!($($msg)+));
                }
            };
        }
        let (minted, ids) = (self.records.len(), self.cfg.total_ids());
        let (device, host, live) = (self.device_live, self.host_live, self.live_pages);
        ensure!(
            minted <= ids,
            "{minted} page ids minted, the pool has {ids}"
        );
        ensure!(
            self.free.len() + live == minted,
            "page leak: {} free + {live} live != {minted} minted ids",
            self.free.len()
        );
        // Tier residency: every live page sits in exactly one tier, the
        // tier counters agree with the per-page locations, and neither
        // tier exceeds its frame capacity.
        ensure!(
            device + host == live,
            "tier split: {device} device + {host} host != {live} live"
        );
        ensure!(
            device <= self.cfg.num_pages,
            "device tier over capacity: {device} live frames of {}",
            self.cfg.num_pages
        );
        ensure!(
            host <= self.cfg.host_pages,
            "host tier over capacity: {host} live frames of {}",
            self.cfg.host_pages
        );
        ensure!(
            self.swapped_out_total >= self.swapped_in_total,
            "swapped in {} pages but only {} ever went out",
            self.swapped_in_total,
            self.swapped_out_total
        );
        ensure!(
            self.allocated_total == self.freed_total + live as u64,
            "conservation: allocated {} != freed {} + live {live}",
            self.allocated_total,
            self.freed_total
        );
        // The id map and the rows agree: each map entry names a row that
        // holds its id, and every other row is vacant and listed once.
        let SeqTable {
            rows,
            vacant,
            index,
        } = &self.seqs;
        for (&id, &row) in index {
            let holder = rows.get(row as usize).and_then(Option::as_ref);
            ensure!(
                holder.is_some_and(|s| s.seq == id),
                "seq {id} maps to row {row}, which holds {:?}",
                holder.map(|s| s.seq)
            );
        }
        let mut listed = vec![false; rows.len()];
        for &row in vacant {
            let row = row as usize;
            ensure!(
                rows.get(row).is_some_and(Option::is_none),
                "row {row} is on the vacant list but not vacant"
            );
            ensure!(!listed[row], "row {row} on the vacant list twice");
            listed[row] = true;
        }
        ensure!(
            vacant.len() + index.len() == rows.len(),
            "{} vacant + {} live rows != {} rows",
            vacant.len(),
            index.len(),
            rows.len()
        );
        // Page-table occurrences per id, for the refcount check below.
        let mut held = vec![0u32; minted];
        for s in self.seqs.iter() {
            let (id, used, reserved) = (s.seq, s.used_tokens, s.reserved_tokens);
            ensure!(
                s.pages.len() == self.cfg.pages_for(reserved),
                "seq {id} holds {} pages for {reserved} reserved tokens",
                s.pages.len()
            );
            ensure!(used <= reserved, "seq {id} used > reserved");
            let mut on_host = 0;
            for &p in &s.pages {
                ensure!((p as usize) < minted, "seq {id} holds unminted page {p}");
                held[p as usize] += 1;
                on_host += usize::from(self.records[p as usize].location == PageLocation::Host);
            }
            ensure!(
                on_host == s.host_pages,
                "seq {id} counts {} host pages, its page table holds {on_host}",
                s.host_pages
            );
        }
        let mut on_free = vec![false; minted];
        for &p in &self.free {
            ensure!((p as usize) < minted, "free page id {p} was never minted");
            ensure!(!on_free[p as usize], "page {p} on the free list twice");
            on_free[p as usize] = true;
        }
        // One pass over the minted records: each refcount is the page's
        // page-table occurrences plus its pins, the free list holds exactly
        // the zero-ref pages, a host page is frozen storage (exclusively
        // held — swap required refs == 1 and nothing can share or pin it
        // while swapped), and the written slots, split per tier and
        // summed, equal the global counter (a transfer moves slots between
        // the tier sums without creating or losing any).
        let (mut device_seen, mut host_seen) = (0usize, 0usize);
        let (mut device_written, mut host_written) = (0usize, 0usize);
        for (i, r) in self.records.iter().enumerate() {
            let expect = held[i] + r.pins;
            ensure!(
                r.refs == expect,
                "page {i} refcount {} != {expect} (page-table occurrences + external)",
                r.refs
            );
            ensure!(
                on_free[i] || r.refs > 0,
                "zero-ref page {i} not on the free list"
            );
            ensure!(
                r.written as usize <= self.cfg.page_size,
                "page {i} written extent {} exceeds page size",
                r.written
            );
            if on_free[i] {
                ensure!(r.refs == 0, "page {i} free but holds {} refs", r.refs);
                ensure!(r.written == 0, "free page {i} still marked written");
                ensure!(
                    r.location == PageLocation::Device,
                    "free page {i} marked host-resident"
                );
            } else if r.location == PageLocation::Device {
                device_seen += 1;
                device_written += r.written as usize;
            } else {
                ensure!(
                    r.refs == 1 && r.pins == 0,
                    "host page {i} holds {} refs / {} pins (must be 1 / 0)",
                    r.refs,
                    r.pins
                );
                host_seen += 1;
                host_written += r.written as usize;
            }
        }
        ensure!(
            device_seen == device && host_seen == host,
            "tier counters drifted: counted {device_seen} device / {host_seen} host, \
             counters say {device} / {host}"
        );
        ensure!(
            device_written + host_written == self.used_tokens,
            "written slots: {device_written} device + {host_written} host != {} counted",
            self.used_tokens
        );
        if self.occupancy() > 1.0 {
            return Err(format!("occupancy {} > 1", self.occupancy()));
        }
        Ok(())
    }
}

/// Point-in-time snapshot of the pool's counters.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct KvStats {
    /// Token slots per page.
    pub page_size: usize,
    /// Total pages in the pool.
    pub capacity_pages: usize,
    /// Pages with at least one reference (either tier).
    pub live_pages: usize,
    /// Free device frames.
    pub free_pages: usize,
    /// Host staging-tier frame capacity (0 = no swap tier).
    pub host_capacity_pages: usize,
    /// Live pages currently resident on the host tier.
    pub host_live_pages: usize,
    /// High-water mark of host-resident pages.
    pub peak_host_live_pages: usize,
    /// Pages ever moved device → host.
    pub swapped_out_pages: u64,
    /// Pages ever moved host → device.
    pub swapped_in_pages: u64,
    /// Physically written token slots (shared slots count once).
    pub used_tokens: usize,
    /// Device-tier occupancy: `(live_pages - host_live_pages) /
    /// capacity_pages` (host-resident pages hold host frames, not device
    /// ones).
    pub occupancy: f64,
    /// Allocated-but-unwritten slot fraction.
    pub fragmentation: f64,
    /// High-water mark of live pages.
    pub peak_live_pages: usize,
    /// Pages ever handed out (refcount bumps on shared pages don't count —
    /// only trips through the free list do).
    pub allocated_total: u64,
    /// Pages ever returned (last reference dropped).
    pub freed_total: u64,
    /// Rejected allocations/extensions (out-of-pages admission signals).
    pub alloc_failures: u64,
    /// Sequences evicted to reclaim pages.
    pub preemptions: u64,
    /// Pages currently referenced by more than one holder.
    pub shared_pages: usize,
    /// Copy-on-write page copies performed.
    pub cow_copies: u64,
    /// Sequences admitted onto shared prefix pages.
    pub shared_admits: u64,
    /// Page references dropped by KV-sparsity eviction
    /// (`release_seq_pages`); shared/pinned pages count here even though
    /// their frames survive for other holders.
    pub sparsity_evicted_pages: u64,
}

impl KvStats {
    /// True when every allocated page was eventually freed (end-of-run
    /// leak check: nothing live, books balanced).
    pub fn conserved(&self) -> bool {
        self.live_pages == 0 && self.allocated_total == self.freed_total
    }
}

impl fmt::Display for KvStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "kv: {}/{} pages live (peak {}, {} shared), occupancy {:.1}%, fragmentation {:.1}%, \
             {} alloc / {} freed, {} failures, {} preemptions, {} cow copies",
            self.live_pages,
            self.capacity_pages,
            self.peak_live_pages,
            self.shared_pages,
            self.occupancy * 100.0,
            self.fragmentation * 100.0,
            self.allocated_total,
            self.freed_total,
            self.alloc_failures,
            self.preemptions,
            self.cow_copies,
        )?;
        if self.host_capacity_pages > 0 {
            write!(
                f,
                "; host tier {}/{} pages (peak {}), {} swapped out / {} restored",
                self.host_live_pages,
                self.host_capacity_pages,
                self.peak_host_live_pages,
                self.swapped_out_pages,
                self.swapped_in_pages,
            )?;
        }
        if self.sparsity_evicted_pages > 0 {
            write!(
                f,
                "; {} pages sparsity-evicted",
                self.sparsity_evicted_pages
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn pool(page_size: usize, pages: usize) -> PagedKvCache {
        PagedKvCache::new(KvConfig::new(page_size, pages))
    }

    #[test]
    fn alloc_extend_free_roundtrip() {
        let mut kv = pool(16, 8);
        assert_eq!(kv.alloc(1, 20).unwrap(), 2); // 20 tokens -> 2 pages
        assert_eq!(kv.live_pages(), 2);
        assert_eq!(kv.seq_tokens(1), Some(20));
        // 21..=32 fit in the second page; 33 crosses into a third.
        assert_eq!(kv.extend(1, 12).unwrap(), 0);
        assert_eq!(kv.extend(1, 1).unwrap(), 1);
        assert_eq!(kv.live_pages(), 3);
        assert_eq!(kv.free(1).unwrap(), 3);
        assert_eq!(kv.free_pages(), 8);
        assert!(kv.stats().conserved());
        kv.check_invariants().unwrap();
    }

    #[test]
    fn out_of_pages_is_atomic_and_counted() {
        let mut kv = pool(16, 4);
        kv.alloc(1, 48).unwrap(); // 3 pages
        let err = kv.alloc(2, 32).unwrap_err(); // needs 2, only 1 free
        assert_eq!(err, KvError::OutOfPages { needed: 2, free: 1 });
        assert_eq!(kv.live_pages(), 3);
        assert_eq!(kv.num_seqs(), 1);
        assert!(!kv.can_admit(32));
        assert!(kv.can_admit(16));
        assert_eq!(kv.stats().alloc_failures, 1);
        kv.check_invariants().unwrap();
    }

    #[test]
    fn extend_failure_leaves_sequence_untouched() {
        let mut kv = pool(4, 2);
        kv.alloc(1, 8).unwrap(); // both pages
        let before = kv.seq_tokens(1).unwrap();
        assert!(matches!(
            kv.extend(1, 1),
            Err(KvError::OutOfPages { needed: 1, free: 0 })
        ));
        assert_eq!(kv.seq_tokens(1), Some(before));
        kv.check_invariants().unwrap();
    }

    #[test]
    fn double_free_and_unknown_seq_are_errors() {
        let mut kv = pool(16, 4);
        kv.alloc(7, 10).unwrap();
        kv.free(7).unwrap();
        assert_eq!(kv.free(7), Err(KvError::UnknownSeq(7)));
        assert_eq!(kv.extend(9, 1), Err(KvError::UnknownSeq(9)));
        assert_eq!(kv.alloc(7, 10).map(|_| ()), Ok(())); // id reusable after free
        assert_eq!(kv.alloc(7, 10), Err(KvError::AlreadyAllocated(7)));
        kv.check_invariants().unwrap();
    }

    #[test]
    fn reservation_shows_up_as_fragmentation() {
        let mut kv = pool(16, 64);
        // On-demand: 100 used tokens in ceil(100/16)=7 pages -> slack 12/112.
        kv.alloc(1, 100).unwrap();
        assert!(kv.fragmentation() < 0.12);
        // Worst-case reservation: 100 used, 512 reserved -> 32 pages.
        kv.alloc_reserved(2, 100, 512).unwrap();
        assert_eq!(kv.live_pages(), 7 + 32);
        assert!(kv.fragmentation() > 0.5, "frag {}", kv.fragmentation());
        // Extending inside the reservation takes no pages.
        assert_eq!(kv.extend(2, 50).unwrap(), 0);
        kv.free(1).unwrap();
        kv.free(2).unwrap();
        assert!(kv.stats().conserved());
        kv.check_invariants().unwrap();
    }

    #[test]
    fn preemption_counts_and_frees() {
        let mut kv = pool(8, 4);
        kv.alloc(1, 16).unwrap();
        kv.alloc(2, 16).unwrap();
        assert_eq!(kv.preempt(2).unwrap(), 2);
        assert_eq!(kv.stats().preemptions, 1);
        assert_eq!(kv.free_pages(), 2);
        // Preempting a gone sequence is still a double-free.
        assert_eq!(kv.preempt(2), Err(KvError::UnknownSeq(2)));
        assert_eq!(kv.stats().preemptions, 1);
        kv.check_invariants().unwrap();
    }

    #[test]
    fn occupancy_tracks_peak() {
        let mut kv = pool(8, 10);
        kv.alloc(1, 40).unwrap(); // 5 pages
        kv.alloc(2, 24).unwrap(); // 3 pages
        assert!((kv.occupancy() - 0.8).abs() < 1e-12);
        kv.free(1).unwrap();
        assert_eq!(kv.stats().peak_live_pages, 8);
        assert!((kv.occupancy() - 0.3).abs() < 1e-12);
        kv.check_invariants().unwrap();
    }

    #[test]
    fn stats_render_every_headline_number() {
        let mut kv = pool(8, 10);
        kv.alloc(1, 12).unwrap();
        let text = kv.stats().to_string();
        assert!(text.contains("occupancy"));
        assert!(text.contains("fragmentation"));
        assert!(text.contains("preemptions"));
        assert!(text.contains("shared"));
        assert!(text.contains("cow"));
    }

    #[test]
    fn sparsity_release_compacts_and_frees() {
        let mut kv = pool(16, 8);
        kv.alloc(1, 50).unwrap(); // 3 full pages + 2-token tail
        let pages = kv.seq_pages(1).unwrap().to_vec();
        assert_eq!(pages.len(), 4);
        let free_before = kv.free_pages();
        // Evict the middle two interior pages; sink and tail survive.
        assert_eq!(kv.release_seq_pages(1, &pages[1..3]).unwrap(), 2);
        assert_eq!(kv.seq_tokens(1), Some(50 - 32));
        assert_eq!(kv.seq_pages(1).unwrap(), &[pages[0], pages[3]]);
        assert_eq!(kv.free_pages(), free_before + 2);
        assert_eq!(kv.stats().sparsity_evicted_pages, 2);
        kv.check_invariants().unwrap();
        // The compacted tail keeps growing page-aligned.
        assert_eq!(kv.extend(1, 14).unwrap(), 0); // fills the tail to 32
        assert_eq!(kv.extend(1, 1).unwrap(), 1);
        kv.free(1).unwrap();
        assert!(kv.stats().conserved());
        kv.check_invariants().unwrap();
    }

    #[test]
    fn sparsity_release_never_frees_shared_or_pinned_frames() {
        let mut kv = pool(16, 8);
        kv.alloc(1, 48).unwrap();
        let pages = kv.seq_pages(1).unwrap().to_vec();
        // Page 0 shared with seq 2, page 1 pinned by an external index.
        kv.alloc_shared(2, &pages[..1], 16).unwrap();
        kv.retain_pages(&pages[1..2]).unwrap();
        // Both references drop, neither frame is freed.
        assert_eq!(kv.release_seq_pages(1, &pages[..2]).unwrap(), 0);
        assert_eq!(kv.page_refs(pages[0]), 1);
        assert_eq!(kv.page_refs(pages[1]), 1);
        assert_eq!(kv.seq_tokens(1), Some(16));
        assert_eq!(kv.stats().sparsity_evicted_pages, 2);
        kv.check_invariants().unwrap();
        kv.free(1).unwrap();
        kv.free(2).unwrap();
        assert_eq!(kv.release_pages(&pages[1..2]).unwrap(), 1);
        assert!(kv.stats().conserved());
        kv.check_invariants().unwrap();
    }

    #[test]
    fn sparsity_release_rejects_illegal_pages_atomically() {
        let mut kv = PagedKvCache::new(KvConfig::new(16, 8).with_host_pages(2));
        kv.alloc(1, 40).unwrap(); // 2 full pages + 8-token tail
        kv.alloc(2, 16).unwrap();
        let pages = kv.seq_pages(1).unwrap().to_vec();
        let foreign = kv.seq_pages(2).unwrap()[0];
        // Partially filled tail, foreign page, duplicates: all rejected.
        assert_eq!(
            kv.release_seq_pages(1, &[pages[2]]),
            Err(KvError::InvalidEvict)
        );
        assert_eq!(
            kv.release_seq_pages(1, &[foreign]),
            Err(KvError::InvalidEvict)
        );
        assert_eq!(
            kv.release_seq_pages(1, &[pages[0], pages[0]]),
            Err(KvError::InvalidEvict)
        );
        assert_eq!(
            kv.release_seq_pages(9, &[pages[0]]),
            Err(KvError::UnknownSeq(9))
        );
        // Host-resident pages are frozen storage: not evictable.
        kv.swap_out(1, &pages[..1]).unwrap();
        assert_eq!(
            kv.release_seq_pages(1, &[pages[0]]),
            Err(KvError::InvalidEvict)
        );
        // Nothing changed: failed calls are atomic.
        assert_eq!(kv.seq_tokens(1), Some(40));
        assert_eq!(kv.stats().sparsity_evicted_pages, 0);
        kv.check_invariants().unwrap();
    }

    #[test]
    fn shared_admission_bumps_refs_without_taking_pages() {
        let mut kv = pool(16, 8);
        kv.alloc(1, 48).unwrap(); // 3 full pages
        let prefix: Vec<PageId> = kv.seq_pages(1).unwrap()[..2].to_vec();
        let free_before = kv.free_pages();
        assert_eq!(kv.alloc_shared(2, &prefix, 32).unwrap(), 2);
        assert_eq!(kv.free_pages(), free_before, "sharing takes no pages");
        assert_eq!(kv.seq_tokens(2), Some(32));
        for &p in &prefix {
            assert_eq!(kv.page_refs(p), 2);
        }
        assert_eq!(kv.shared_pages(), 2);
        assert_eq!(kv.stats().shared_admits, 1);
        // Slots written once: 48 physical, not 48 + 32.
        assert_eq!(kv.used_tokens(), 48);
        kv.check_invariants().unwrap();
        // The sharer extends onto fresh pages past its full-page prefix.
        assert_eq!(kv.extend(2, 16).unwrap(), 1);
        assert_ne!(kv.seq_pages(2).unwrap()[2], kv.seq_pages(1).unwrap()[2]);
        kv.free(1).unwrap();
        // Shared pages survive the original owner's free.
        for &p in &prefix {
            assert_eq!(kv.page_refs(p), 1);
        }
        kv.free(2).unwrap();
        assert!(kv.stats().conserved());
        kv.check_invariants().unwrap();
    }

    #[test]
    fn invalid_shares_are_rejected() {
        let mut kv = pool(16, 4);
        kv.alloc(1, 16).unwrap();
        let page = kv.seq_pages(1).unwrap()[0];
        // Page list does not cover the claimed prefix.
        assert_eq!(kv.alloc_shared(2, &[page], 32), Err(KvError::InvalidShare));
        assert_eq!(kv.alloc_shared(2, &[page], 0), Err(KvError::InvalidShare));
        // Free and out-of-range pages cannot be shared or retained.
        let free_page = (0..4).find(|&p| kv.page_refs(p) == 0).unwrap();
        assert_eq!(
            kv.alloc_shared(2, &[free_page], 16),
            Err(KvError::InvalidShare)
        );
        assert_eq!(kv.retain_pages(&[99]), Err(KvError::InvalidShare));
        assert_eq!(kv.release_pages(&[page]), Err(KvError::InvalidShare));
        assert_eq!(
            kv.alloc_shared(1, &[page], 16),
            Err(KvError::AlreadyAllocated(1))
        );
        // One page cannot hold two positions of a prefix.
        kv.alloc(3, 32).unwrap();
        let full = kv.seq_pages(3).unwrap()[0];
        let before = kv.stats();
        assert_eq!(
            kv.alloc_shared(2, &[full, full], 32),
            Err(KvError::InvalidShare)
        );
        assert_eq!(kv.stats(), before, "a refused share changes nothing");
        kv.check_invariants().unwrap();
        // A claimed prefix beyond the donor's written extent is rejected:
        // only KV that was actually computed can be adopted.
        let mut kv = pool(16, 4);
        kv.alloc(1, 10).unwrap(); // 10 of the page's 16 slots written
        let p = kv.seq_pages(1).unwrap()[0];
        assert_eq!(kv.alloc_shared(2, &[p], 16), Err(KvError::InvalidShare));
        assert_eq!(kv.used_tokens(), 10, "failed share fabricated no slots");
        assert_eq!(kv.alloc_shared(2, &[p], 10).map(|_| ()), Ok(()));
        kv.check_invariants().unwrap();
    }

    #[test]
    fn retain_release_pins_pages_past_sequence_lifetime() {
        let mut kv = pool(16, 8);
        kv.alloc(1, 32).unwrap();
        let pages: Vec<PageId> = kv.seq_pages(1).unwrap().to_vec();
        kv.retain_pages(&pages).unwrap();
        // Freeing the sequence physically frees nothing: the retain holds.
        assert_eq!(kv.free(1).unwrap(), 0);
        assert_eq!(kv.live_pages(), 2);
        assert_eq!(kv.used_tokens(), 32, "retained pages keep their slots");
        kv.check_invariants().unwrap();
        // A later sequence can be admitted onto the retained pages.
        kv.alloc_shared(2, &pages, 32).unwrap();
        assert_eq!(kv.release_pages(&pages).unwrap(), 0, "seq 2 still holds");
        assert_eq!(kv.free(2).unwrap(), 2);
        assert!(kv.stats().conserved());
        kv.check_invariants().unwrap();
    }

    #[test]
    fn copy_on_write_never_mutates_the_shared_page() {
        let mut kv = pool(16, 8);
        kv.alloc(1, 20).unwrap(); // page 0 full, page 1 holds 4 slots
        let pages: Vec<PageId> = kv.seq_pages(1).unwrap().to_vec();
        kv.alloc_shared(2, &pages, 20).unwrap();
        let boundary = pages[1];
        let written_before = kv.page_written(boundary);
        // Seq 2 writes into the partially filled shared page: it must get
        // a private copy, taking exactly one fresh page.
        assert_eq!(kv.extend(2, 4).unwrap(), 1);
        assert_eq!(kv.stats().cow_copies, 1);
        let copied = kv.seq_pages(2).unwrap()[1];
        assert_ne!(copied, boundary);
        assert_eq!(kv.page_refs(boundary), 1, "only seq 1 holds it now");
        assert_eq!(
            kv.page_written(boundary),
            written_before,
            "the shared page was never mutated"
        );
        assert_eq!(kv.page_written(copied), 8, "copy carries prefix + growth");
        assert_eq!(kv.seq_tokens(1), Some(20));
        assert_eq!(kv.seq_tokens(2), Some(24));
        kv.check_invariants().unwrap();
        // Seq 1 can keep growing its own page — it is exclusive again.
        assert_eq!(kv.extend(1, 4).unwrap(), 0);
        kv.free(1).unwrap();
        kv.free(2).unwrap();
        assert!(kv.stats().conserved());
        kv.check_invariants().unwrap();
    }

    fn tiered(page_size: usize, pages: usize, host: usize) -> PagedKvCache {
        PagedKvCache::new(KvConfig::new(page_size, pages).with_host_pages(host))
    }

    #[test]
    fn swap_roundtrip_preserves_ids_refs_and_written_slots() {
        let mut kv = tiered(16, 4, 4);
        kv.alloc(1, 40).unwrap(); // 3 pages, last holds 8 slots
        let pages: Vec<PageId> = kv.seq_pages(1).unwrap().to_vec();
        let used = kv.used_tokens();
        assert_eq!(kv.free_pages(), 1);
        kv.swap_out(1, &pages).unwrap();
        // Device frames came back; ids, refcounts and slots survived.
        assert_eq!(kv.free_pages(), 4);
        assert_eq!(kv.host_live_pages(), 3);
        assert_eq!(kv.live_pages(), 3);
        assert_eq!(kv.seq_pages(1).unwrap(), pages.as_slice());
        assert_eq!(kv.used_tokens(), used, "slots conserved across the move");
        for &p in &pages {
            assert_eq!(kv.page_refs(p), 1);
            assert_eq!(kv.page_location(p), PageLocation::Host);
        }
        assert_eq!(kv.seq_resident(1), Some(false));
        assert_eq!(kv.seq_host_pages(1), 3);
        kv.check_invariants().unwrap();
        // The freed frames are genuinely reusable while 1 is on host.
        kv.alloc(2, 64).unwrap(); // all 4 device frames
        assert!(!kv.can_admit(1));
        assert_eq!(
            kv.swap_in(1),
            Err(KvError::OutOfPages { needed: 3, free: 0 })
        );
        kv.free(2).unwrap();
        assert_eq!(kv.swap_in(1).unwrap(), 3);
        assert_eq!(kv.seq_resident(1), Some(true));
        assert_eq!(kv.host_live_pages(), 0);
        let s = kv.stats();
        assert_eq!(s.swapped_out_pages, 3);
        assert_eq!(s.swapped_in_pages, 3);
        assert_eq!(s.peak_host_live_pages, 3);
        kv.check_invariants().unwrap();
        // Decode can resume: extend works again after restore.
        assert_eq!(kv.extend(1, 8).unwrap(), 0);
        kv.free(1).unwrap();
        assert!(kv.stats().conserved());
        kv.check_invariants().unwrap();
    }

    #[test]
    fn swapped_sequences_cannot_extend_share_or_pin() {
        let mut kv = tiered(16, 4, 4);
        kv.alloc(1, 32).unwrap();
        let pages: Vec<PageId> = kv.seq_pages(1).unwrap().to_vec();
        kv.swap_out(1, &pages).unwrap();
        assert_eq!(kv.extend(1, 1), Err(KvError::SwappedOut(1)));
        assert_eq!(kv.alloc_shared(2, &pages, 32), Err(KvError::InvalidShare));
        assert_eq!(kv.retain_pages(&pages), Err(KvError::InvalidShare));
        kv.check_invariants().unwrap();
        // Freeing a swapped sequence drains the host tier leak-free.
        kv.free(1).unwrap();
        assert_eq!(kv.host_live_pages(), 0);
        assert!(kv.stats().conserved());
        kv.check_invariants().unwrap();
    }

    #[test]
    fn swap_rejects_shared_pinned_and_duplicate_pages_atomically() {
        let mut kv = tiered(16, 8, 8);
        kv.alloc(1, 32).unwrap();
        let pages: Vec<PageId> = kv.seq_pages(1).unwrap().to_vec();
        // Shared with another sequence: not swappable.
        kv.alloc_shared(2, &pages[..1], 16).unwrap();
        assert_eq!(kv.swap_out(1, &pages), Err(KvError::InvalidSwap));
        assert_eq!(kv.host_live_pages(), 0, "failure moved nothing");
        kv.free(2).unwrap();
        // Index-pinned: not swappable either.
        kv.retain_pages(&pages[..1]).unwrap();
        assert_eq!(kv.swap_out(1, &pages[..1]), Err(KvError::InvalidSwap));
        kv.release_pages(&pages[..1]).unwrap();
        // Duplicates and foreign pages are rejected.
        assert_eq!(
            kv.swap_out(1, &[pages[0], pages[0]]),
            Err(KvError::InvalidSwap)
        );
        kv.alloc(3, 16).unwrap();
        let foreign = kv.seq_pages(3).unwrap()[0];
        assert_eq!(kv.swap_out(1, &[foreign]), Err(KvError::InvalidSwap));
        assert_eq!(kv.swap_out(9, &pages), Err(KvError::UnknownSeq(9)));
        // Now legal: both exclusive pages move; a second swap of the same
        // pages fails (already host-resident).
        kv.swap_out(1, &pages).unwrap();
        assert_eq!(kv.swap_out(1, &pages), Err(KvError::InvalidSwap));
        kv.check_invariants().unwrap();
        kv.free(1).unwrap();
        kv.free(3).unwrap();
        assert!(kv.stats().conserved());
    }

    #[test]
    fn host_tier_capacity_is_enforced_atomically() {
        let mut kv = tiered(16, 4, 2);
        kv.alloc(1, 64).unwrap(); // 4 pages
        let pages: Vec<PageId> = kv.seq_pages(1).unwrap().to_vec();
        assert_eq!(
            kv.swap_out(1, &pages[..3]),
            Err(KvError::OutOfHostPages { needed: 3, free: 2 })
        );
        assert_eq!(kv.host_live_pages(), 0, "failed swap moved nothing");
        kv.swap_out(1, &pages[..2]).unwrap();
        assert_eq!(kv.host_free_pages(), 0);
        assert!((kv.host_occupancy() - 1.0).abs() < 1e-12);
        assert_eq!(
            kv.swap_out(1, &pages[2..3]),
            Err(KvError::OutOfHostPages { needed: 1, free: 0 })
        );
        kv.check_invariants().unwrap();
        // A partially swapped sequence still cannot extend, and restore
        // brings back exactly the host-resident pages.
        assert_eq!(kv.extend(1, 1), Err(KvError::SwappedOut(1)));
        assert_eq!(kv.swap_in(1).unwrap(), 2);
        assert_eq!(kv.swap_in(1).unwrap(), 0, "second restore is a no-op");
        kv.free(1).unwrap();
        assert!(kv.stats().conserved());
        kv.check_invariants().unwrap();
    }

    #[test]
    fn swap_stats_render_and_zero_host_pools_reject_swaps() {
        let mut kv = tiered(8, 4, 2);
        kv.alloc(1, 8).unwrap();
        let p = kv.seq_pages(1).unwrap().to_vec();
        kv.swap_out(1, &p).unwrap();
        let text = kv.stats().to_string();
        assert!(text.contains("host tier"));
        assert!(text.contains("swapped out"));
        // A pool without a host tier never accepts a swap.
        let mut flat = pool(8, 4);
        flat.alloc(1, 8).unwrap();
        let fp = flat.seq_pages(1).unwrap().to_vec();
        assert_eq!(
            flat.swap_out(1, &fp),
            Err(KvError::OutOfHostPages { needed: 1, free: 0 })
        );
        assert!(!flat.stats().to_string().contains("host tier"));
    }

    /// `seq_host_pages` and `seq_resident` as a page-table scan computes
    /// them — the oracle for the per-sequence host-page count.
    fn scanned_residency(kv: &PagedKvCache, seq: SeqId) -> (usize, Option<bool>) {
        kv.seq_pages(seq).map_or((0, None), |pages| {
            let host = pages
                .iter()
                .filter(|&&p| kv.page_location(p) == PageLocation::Host)
                .count();
            (host, Some(host == 0))
        })
    }

    #[test]
    fn host_page_count_tracks_the_page_table() {
        let mut kv = tiered(16, 8, 8);
        kv.alloc(1, 64).unwrap(); // 4 full pages
        kv.alloc(2, 20).unwrap();
        let pages = kv.seq_pages(1).unwrap().to_vec();
        let check = |kv: &PagedKvCache| {
            for seq in [1, 2, 3] {
                assert_eq!(
                    (kv.seq_host_pages(seq), kv.seq_resident(seq)),
                    scanned_residency(kv, seq),
                    "seq {seq}"
                );
            }
            kv.check_invariants().unwrap();
        };
        check(&kv);
        // Partly swapped: the count follows, and decode growth is refused
        // without touching the sequence.
        kv.swap_out(1, &[pages[3], pages[1]]).unwrap();
        check(&kv);
        assert_eq!(kv.seq_host_pages(1), 2);
        assert_eq!(kv.extend(1, 1), Err(KvError::SwappedOut(1)));
        assert_eq!(kv.extend(1, 0), Err(KvError::SwappedOut(1)));
        assert_eq!(kv.seq_tokens(1), Some(64));
        // A refused swap (a page already on the host) changes no count.
        assert_eq!(
            kv.swap_out(1, &[pages[2], pages[1]]),
            Err(KvError::InvalidSwap)
        );
        check(&kv);
        // A device-resident interior page of a partly swapped sequence
        // can still be sparsity-released; the host count is unchanged.
        assert_eq!(kv.release_seq_pages(1, &[pages[2]]).unwrap(), 1);
        check(&kv);
        assert_eq!(kv.seq_host_pages(1), 2);
        assert_eq!(kv.swap_in(1).unwrap(), 2);
        check(&kv);
        assert_eq!(kv.extend(1, 1).unwrap(), 1);
        kv.swap_out(1, &[pages[0]]).unwrap();
        check(&kv);
        kv.free(1).unwrap();
        check(&kv);
        assert_eq!(kv.seq_host_pages(1), 0);
        assert_eq!(kv.seq_resident(1), None);
        kv.free(2).unwrap();
        check(&kv);
        assert!(kv.stats().conserved());
    }

    #[test]
    fn refused_swaps_leave_every_page_where_it_was() {
        let mut kv = tiered(16, 8, 2);
        kv.alloc(1, 48).unwrap();
        kv.alloc(2, 16).unwrap();
        let pages = kv.seq_pages(1).unwrap().to_vec();
        let foreign = kv.seq_pages(2).unwrap()[0];
        let free = (0..kv.config().total_ids() as PageId)
            .find(|&p| kv.page_refs(p) == 0)
            .unwrap();
        for plan in [
            vec![pages[0], foreign],
            vec![pages[0], free],
            vec![pages[1], pages[0], pages[1]],
            vec![pages[0], 9_999],
            pages.clone(), // three pages, two host frames
        ] {
            assert!(kv.swap_out(1, &plan).is_err(), "{plan:?}");
            for p in 0..kv.config().total_ids() as PageId {
                assert_eq!(kv.page_location(p), PageLocation::Device, "{plan:?}");
            }
            assert_eq!(kv.seq_host_pages(1), 0);
            kv.check_invariants().unwrap();
        }
    }

    #[test]
    fn cow_failure_is_atomic_when_no_page_is_free() {
        let mut kv = pool(16, 2);
        kv.alloc(1, 20).unwrap(); // both pages
        let pages: Vec<PageId> = kv.seq_pages(1).unwrap().to_vec();
        kv.alloc_shared(2, &pages, 20).unwrap();
        // Seq 2's growth needs a CoW page, but the pool is exhausted.
        assert_eq!(
            kv.extend(2, 1),
            Err(KvError::OutOfPages { needed: 1, free: 0 })
        );
        assert_eq!(kv.seq_tokens(2), Some(20));
        assert_eq!(kv.stats().cow_copies, 0);
        kv.check_invariants().unwrap();
    }

    /// One operation of the twin-pool script.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Alloc(SeqId, usize),
        /// `alloc_reserved(seq, used, reserved)`.
        Reserve(SeqId, usize, usize),
        /// `alloc_shared` of a new sequence onto another's pages and
        /// written prefix.
        Share(SeqId, SeqId, usize),
        /// Allocates every free device page to a new sequence.
        FillPool(SeqId),
        SwapOut(SeqId),
        SwapIn(SeqId),
        Extend(SeqId, usize),
        Free(SeqId),
    }

    /// How the twin script grows a sequence.
    #[derive(Debug, Clone, Copy)]
    enum Path {
        /// `extend` by id.
        Id,
        /// `extend_slot` with the slot taken when the sequence was
        /// allocated.
        Slot,
        /// The general path alone, by the same slot.
        General,
    }

    /// Applies `op` to `kv`, growing sequences along `path`. `slots`
    /// holds each allocated sequence's slot, taken at allocation; a
    /// sequence never allocated grows by a slot naming row 0, another
    /// sequence's row, under its own id.
    fn apply(
        kv: &mut PagedKvCache,
        op: Op,
        path: Path,
        slots: &mut BTreeMap<SeqId, SeqSlot>,
    ) -> Result<usize, KvError> {
        let got = match op {
            Op::Alloc(seq, tokens) => kv.alloc(seq, tokens),
            Op::Reserve(seq, used, reserved) => kv.alloc_reserved(seq, used, reserved),
            Op::Share(seq, from, tokens) => {
                let pages = kv.seq_pages(from).unwrap().to_vec();
                kv.alloc_shared(seq, &pages, tokens)
            }
            Op::FillPool(seq) => {
                let tokens = kv.free_pages() * kv.config().page_size;
                kv.alloc(seq, tokens)
            }
            Op::SwapOut(seq) => {
                let pages = kv.seq_pages(seq).unwrap().to_vec();
                kv.swap_out(seq, &pages).map(|()| pages.len())
            }
            Op::SwapIn(seq) => kv.swap_in(seq),
            Op::Extend(seq, tokens) => {
                let slot = slots.get(&seq).copied().unwrap_or(SeqSlot { row: 0, seq });
                match path {
                    Path::Id => kv.extend(seq, tokens),
                    Path::Slot => kv.extend_slot(slot, tokens),
                    Path::General => kv.extend_general(slot, tokens),
                }
            }
            Op::Free(seq) => kv.free(seq),
        };
        if let Op::Alloc(seq, _) | Op::Reserve(seq, ..) | Op::Share(seq, ..) | Op::FillPool(seq) =
            op
        {
            slots.extend(kv.slot(seq).map(|slot| (seq, slot)));
        }
        got
    }

    /// Every extension case at page size `ps`, in order.
    fn twin_script(ps: usize) -> Vec<Op> {
        use Op::*;
        vec![
            // Growth inside the tail page, then growth that exactly fills
            // it (at `ps == 1` every token takes a page).
            Alloc(1, 1),
            Extend(1, 1),
            Extend(1, ps - 2 % ps),
            // Growth across pages, several tokens at once.
            Extend(1, ps + 2),
            Extend(1, 0),
            // An unknown sequence.
            Extend(99, 1),
            Extend(99, 0),
            // A shared, partially written tail page: the sharer copies it
            // first, after which both tails are exclusive again.
            Alloc(2, ps + 1),
            Share(3, 2, ps + 1),
            Extend(3, 1),
            Extend(2, 1),
            Extend(3, 1),
            // A static reservation whose written end is below its last
            // page, growing inside, to and past the reservation.
            Reserve(4, 1, 3 * ps),
            Extend(4, 1),
            Extend(4, 2 * ps - 2),
            Extend(4, 1),
            Extend(4, 1),
            // A reservation ending inside its tail page, outgrown there.
            Reserve(5, ps + 1, ps + 2),
            Extend(5, ps - 1),
            // A swapped-out sequence cannot grow, not even by nothing.
            SwapOut(5),
            Extend(5, 1),
            Extend(5, 0),
            SwapIn(5),
            Extend(5, 1),
            // An exhausted pool: growth inside a tail page still succeeds,
            // growth past it fails.
            FillPool(6),
            Extend(1, 1),
            Extend(1, ps),
            Free(1),
            Free(2),
            Free(3),
            Free(4),
            Free(5),
            Free(6),
        ]
    }

    /// Panics unless the two pools agree on every sequence, every page's
    /// written slots, the counters and the invariants.
    fn assert_twins(fast: &PagedKvCache, twin: &PagedKvCache, at: &str) {
        for seq in (0..8).chain([99]) {
            assert_eq!(fast.seq_tokens(seq), twin.seq_tokens(seq), "{at}");
            assert_eq!(fast.seq_pages(seq), twin.seq_pages(seq), "{at}");
        }
        for p in 0..fast.config().total_ids() as PageId {
            assert_eq!(fast.page_written(p), twin.page_written(p), "{at}");
        }
        assert_eq!(fast.stats(), twin.stats(), "{at}");
        assert_eq!(fast.check_invariants(), Ok(()), "{at}");
        assert_eq!(twin.check_invariants(), Ok(()), "{at}");
    }

    #[test]
    fn extend_fast_path_matches_the_general_path() {
        for ps in [1, 3, 16] {
            let [mut fast, mut by_slot, mut general] = [(); 3].map(|()| tiered(ps, 64, 8));
            let mut slots = [(); 3].map(|()| BTreeMap::new());
            let mut results = Vec::new();
            for (i, op) in twin_script(ps).into_iter().enumerate() {
                let at = format!("page size {ps}, op {i}: {op:?}");
                let got = apply(&mut fast, op, Path::Id, &mut slots[0]);
                assert_eq!(
                    got,
                    apply(&mut by_slot, op, Path::Slot, &mut slots[1]),
                    "{at}"
                );
                assert_eq!(
                    got,
                    apply(&mut general, op, Path::General, &mut slots[2]),
                    "{at}"
                );
                assert_twins(&fast, &by_slot, &at);
                assert_twins(&fast, &general, &at);
                results.push(got);
            }
            assert!(results.contains(&Err(KvError::UnknownSeq(99))));
            assert!(results.contains(&Err(KvError::SwappedOut(5))));
            assert!(results.contains(&Err(KvError::OutOfPages { needed: 1, free: 0 })));
            let stats = fast.stats();
            assert_eq!(stats.cow_copies, u64::from(ps > 1), "page size {ps}");
            assert!(stats.conserved(), "page size {ps}");
        }
    }

    #[test]
    fn a_slot_is_refused_once_its_sequence_is_gone() {
        let mut kv = pool(16, 8);
        kv.alloc(1, 20).unwrap();
        kv.alloc(2, 4).unwrap();
        let gone = [(kv.slot(1).unwrap(), 1), (kv.slot(2).unwrap(), 2)];
        assert_eq!(kv.slot_tokens(gone[0].0), Some(20));
        assert_eq!(kv.extend_slot(gone[0].0, 1), Ok(0));
        assert_eq!(kv.seq_tokens(1), Some(21));
        kv.free(1).unwrap();
        kv.preempt(2).unwrap();
        let refused = |kv: &mut PagedKvCache| {
            for (slot, seq) in gone {
                assert_eq!(kv.slot_tokens(slot), None, "seq {seq}");
                assert_eq!(kv.extend_slot(slot, 1), Err(KvError::UnknownSeq(seq)));
                assert_eq!(
                    kv.release_slot_positions(slot, &[0]),
                    Err(KvError::UnknownSeq(seq))
                );
            }
            kv.check_invariants().unwrap();
        };
        refused(&mut kv);
        assert_eq!((kv.slot(1), kv.slot(2)), (None, None));
        // Two other ids take both rows; the old slots read nothing of them
        // and grow neither.
        kv.alloc(3, 5).unwrap();
        kv.alloc(4, 6).unwrap();
        let mut rows = [kv.slot(3).unwrap().row, kv.slot(4).unwrap().row];
        rows.sort_unstable();
        assert_eq!(rows, [gone[0].0.row, gone[1].0.row]);
        refused(&mut kv);
        assert_eq!((kv.seq_tokens(3), kv.seq_tokens(4)), (Some(5), Some(6)));
        // Rows follow the peak of live sequences, not the ids served.
        for seq in 5..1_000 {
            kv.alloc(seq, 1).unwrap();
            kv.free(seq).unwrap();
        }
        assert_eq!(kv.seqs.rows.len(), 3);
        kv.check_invariants().unwrap();
    }

    #[test]
    fn a_new_pool_mints_nothing_and_unminted_ids_read_free() {
        let mut kv = tiered(16, 163_840, 16);
        assert_eq!((kv.records.capacity(), kv.free.capacity()), (0, 0));
        kv.alloc(1, 20).unwrap();
        assert_eq!(kv.records.len(), 2, "one record per id handed out");
        let last = kv.config().total_ids() as PageId - 1;
        assert_eq!(kv.page_refs(last) + kv.page_ext_refs(last), 0);
        assert_eq!(kv.page_written(last), 0);
        assert_eq!(kv.page_location(last), PageLocation::Device);
        kv.check_invariants().unwrap();
    }

    /// Allocates `tokens` slots to a new sequence; returns its page table.
    fn alloc_table(kv: &mut PagedKvCache, seq: SeqId, tokens: usize) -> Vec<PageId> {
        kv.alloc(seq, tokens).unwrap();
        kv.seq_pages(seq).unwrap().to_vec()
    }

    /// A pool holding a page in every state the checker tells apart: a
    /// shared page, an index-pinned page, a swapped-out page, a partially
    /// written tail, recycled free ids and a live highest id; and a vacant
    /// sequence row. On the way it pins the id order: ids are minted 0, 1,
    /// 2, …, and freed ids are reused last-freed-first before a new id is
    /// minted.
    fn every_state_pool() -> PagedKvCache {
        let mut kv = tiered(4, 8, 4);
        assert_eq!(alloc_table(&mut kv, 1, 8), [0, 1]);
        assert_eq!(alloc_table(&mut kv, 2, 12), [2, 3, 4]);
        assert_eq!(alloc_table(&mut kv, 3, 4), [5]);
        kv.free(2).unwrap(); // 2, 3, 4 return in table order
        assert_eq!(alloc_table(&mut kv, 4, 6), [4, 3], "last freed first");
        assert_eq!(
            alloc_table(&mut kv, 5, 8),
            [2, 6],
            "freed ids, then a new one"
        );
        assert_eq!(alloc_table(&mut kv, 6, 4), [7]);
        kv.alloc_shared(7, &[0], 4).unwrap();
        kv.free(5).unwrap();
        kv.retain_pages(&[1]).unwrap();
        kv.swap_out(3, &[5]).unwrap();
        assert_eq!(kv.free, [2, 6], "recycled free ids");
        assert_eq!(kv.records.len(), 8);
        assert_eq!((kv.page_refs(0), kv.page_ext_refs(1)), (2, 1));
        assert_eq!(kv.page_location(5), PageLocation::Host);
        assert_eq!(kv.page_written(3), 2, "partially written tail");
        assert_eq!((kv.seqs.rows.len(), kv.seqs.vacant.len()), (6, 1));
        kv
    }

    /// What a corruption breaks, and how.
    type Corruption = (&'static str, fn(&mut PagedKvCache));

    #[test]
    fn check_invariants_catches_each_broken_condition() {
        assert_eq!(every_state_pool().check_invariants(), Ok(()));
        let corruptions: [Corruption; 15] = [
            ("refcount of the highest id", |kv| kv.records[7].refs += 1),
            ("pin", |kv| kv.records[1].pins += 1),
            ("written extent on a free id", |kv| {
                kv.records[6].written = 1
            }),
            ("written extent past the page", |kv| {
                kv.records[3].written = 5
            }),
            ("free id on the host tier", |kv| {
                kv.records[2].location = PageLocation::Host;
            }),
            ("highest id on the host tier", |kv| {
                kv.records[7].location = PageLocation::Host;
            }),
            ("id twice on the free list", |kv| kv.free[1] = kv.free[0]),
            ("sequence's host-page count", |kv| {
                kv.seqs.get_mut(3).unwrap().host_pages = 0;
            }),
            ("id map entry naming a vacant row", |kv| {
                let row = kv.seqs.vacant[0];
                kv.seqs.index.insert(3, row);
            }),
            ("id map entry naming another id's row", |kv| {
                let row = kv.seqs.index[&4];
                kv.seqs.index.insert(3, row);
            }),
            ("device tier counter", |kv| kv.device_live += 1),
            ("host tier counter", |kv| kv.host_live -= 1),
            ("a page moved between tier counters", |kv| {
                kv.device_live += 1;
                kv.host_live -= 1;
            }),
            ("live counter", |kv| kv.live_pages += 1),
            ("used_tokens", |kv| kv.used_tokens += 1),
        ];
        for (what, corrupt) in corruptions {
            let mut kv = every_state_pool();
            corrupt(&mut kv);
            assert!(kv.check_invariants().is_err(), "broken {what} passed");
        }
    }
}
