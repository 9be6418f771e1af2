//! Property-based tests (proptest) for the paged KV-cache allocator and
//! its use by the decode runtime: page conservation (allocated = freed +
//! live), no double-frees, occupancy bounds, refcounted sharing (no page
//! freed while referenced, copy-on-write never mutates a shared page),
//! tiered residency under swap-out/swap-in (no double residency,
//! refcounts survive tier moves), sparsity eviction (page-aligned
//! shrinkage that never frees shared or pinned frames and rejects
//! illegal picks atomically), and end-of-run leak freedom across both
//! tiers under completion and preemption.

use pit::gpusim::DeviceSpec;
use pit::kv::{KvConfig, KvError, PageLocation, PagedKvCache};
use pit::models::ModelConfig;
use pit::serve::decode::{
    simulate_decode_trace, DecodePolicy, DecodeServeConfig, KvSparsityPolicy, PreemptPolicy,
};
use pit::workloads::{ArrivalTrace, DatasetSpec, DecodeSpec, DecodeTrace, SharedPrefixSpec};
use proptest::prelude::*;

/// The decode runtime's page size (`DecodeServeConfig::page_size`), so
/// pool sizes computed in tokens stay page-accurate.
const PAGE_SIZE: usize = 16;

/// Builder seeded like the proptests' old flat configs: depth-1 OPT-1.3B
/// on the modelled A100 (cost-model depth is irrelevant to invariants),
/// invariant checks after every iteration.
fn proptest_builder(policy: DecodePolicy) -> pit::serve::decode::DecodeServeConfigBuilder {
    let mut model = ModelConfig::opt("1.3B");
    model.layers = 1;
    DecodeServeConfig::builder(model, DeviceSpec::a100_80gb())
        .policy(policy)
        .verify_invariants(true)
}

/// Deterministic operation stream driver: interprets a seed as a sequence
/// of alloc/extend/free/preempt/share/retain/release/swap/sparsity-evict
/// operations over a bounded id space and checks the pool invariants
/// after every step.
/// Returns the pool and the externally retained pages still to release
/// (the prefix-index mirror).
fn drive_ops(
    page_size: usize,
    pages: usize,
    host_pages: usize,
    ids: u64,
    ops: usize,
    seed: u64,
) -> (PagedKvCache, Vec<u32>) {
    let mut kv = PagedKvCache::new(KvConfig::new(page_size, pages).with_host_pages(host_pages));
    let mut retained: Vec<u32> = Vec::new();
    let mut h = seed | 1;
    let mut next = || {
        // xorshift64* — deterministic op stream per seed.
        h ^= h << 13;
        h ^= h >> 7;
        h ^= h << 17;
        h.wrapping_mul(0x2545_f491_4f6c_dd1d)
    };
    for _ in 0..ops {
        let r = next();
        let id = (r >> 8) % ids;
        let tokens = (r >> 32) as usize % (3 * page_size) + 1;
        let live_before = kv.live_pages();
        let free_before = kv.free_pages();
        match r % 10 {
            0 => {
                let was_live = kv.seq_tokens(id).is_some();
                match kv.alloc(id, tokens) {
                    Ok(n) => {
                        assert!(!was_live, "alloc succeeded on a live sequence");
                        assert_eq!(n, kv.config().pages_for(tokens));
                        assert_eq!(kv.live_pages(), live_before + n);
                    }
                    Err(KvError::AlreadyAllocated(e)) => assert_eq!(e, id),
                    Err(KvError::OutOfPages { needed, free }) => {
                        assert_eq!(free, free_before);
                        assert!(needed > free, "atomic failure must be real");
                        assert_eq!(kv.live_pages(), live_before, "failed alloc mutated pool");
                    }
                    Err(e) => panic!("unexpected alloc error {e:?}"),
                }
            }
            1 => {
                let held = kv.seq_tokens(id);
                // If growth will write into a partially filled *shared*
                // page, extend must copy it, never mutate it in place.
                let cow_source = held.filter(|&u| u % page_size != 0).and_then(|u| {
                    let p = kv.seq_pages(id).expect("live")[u / page_size];
                    (kv.page_refs(p) > 1).then_some((u / page_size, p, kv.page_written(p)))
                });
                let swapped_held = kv.seq_host_pages(id);
                match kv.extend(id, tokens) {
                    Ok(n) => {
                        let before = held.expect("extend succeeded on unknown seq");
                        assert_eq!(swapped_held, 0, "extend succeeded on a swapped seq");
                        assert_eq!(kv.seq_tokens(id), Some(before + tokens));
                        assert_eq!(kv.live_pages(), live_before + n);
                        if let Some((bi, p, written)) = cow_source {
                            let now = kv.seq_pages(id).expect("live")[bi];
                            assert_ne!(now, p, "copy-on-write replaced the shared page");
                            assert!(kv.page_refs(p) >= 1, "shared page stays live");
                            assert_eq!(
                                kv.page_written(p),
                                written,
                                "copy-on-write never mutates a shared page"
                            );
                        }
                    }
                    Err(KvError::UnknownSeq(_)) => assert!(held.is_none()),
                    Err(KvError::OutOfPages { .. }) => {
                        assert_eq!(kv.seq_tokens(id), held, "failed extend mutated seq");
                        assert_eq!(kv.live_pages(), live_before);
                    }
                    Err(KvError::SwappedOut(s)) => {
                        assert_eq!(s, id);
                        assert!(swapped_held > 0, "only swapped seqs refuse writes");
                        assert_eq!(kv.seq_tokens(id), held, "failed extend mutated seq");
                    }
                    Err(e) => panic!("unexpected extend error {e:?}"),
                }
            }
            2 => {
                let was_live = kv.seq_tokens(id).is_some();
                // Pages another holder also references must survive this
                // free with one reference fewer.
                let shared: Vec<(u32, u32)> = kv
                    .seq_pages(id)
                    .map(|pages| {
                        pages
                            .iter()
                            .map(|&p| (p, kv.page_refs(p)))
                            .filter(|&(_, r)| r > 1)
                            .collect()
                    })
                    .unwrap_or_default();
                let held_pages = kv.seq_pages(id).map(<[u32]>::len).unwrap_or(0);
                let host_held = kv.seq_host_pages(id);
                let host_before = kv.host_live_pages();
                match kv.free(id) {
                    Ok(n) => {
                        assert!(was_live);
                        assert!(n <= held_pages, "cannot free more than it held");
                        // Host-resident pages (always exclusive) free with
                        // the sequence but return host frames, not device
                        // ones.
                        assert_eq!(kv.free_pages(), free_before + n - host_held);
                        assert_eq!(kv.host_live_pages(), host_before - host_held);
                        for &(p, r) in &shared {
                            assert_eq!(kv.page_refs(p), r - 1);
                            assert!(kv.page_refs(p) >= 1, "no page freed while referenced");
                        }
                        // Freed exactly once: a second free must fail.
                        assert_eq!(kv.free(id), Err(KvError::UnknownSeq(id)));
                    }
                    Err(KvError::UnknownSeq(_)) => assert!(!was_live),
                    Err(e) => panic!("unexpected free error {e:?}"),
                }
            }
            3 => {
                let preemptions_before = kv.stats().preemptions;
                match kv.preempt(id) {
                    Ok(_) => assert_eq!(kv.stats().preemptions, preemptions_before + 1),
                    Err(KvError::UnknownSeq(_)) => {
                        assert_eq!(kv.stats().preemptions, preemptions_before)
                    }
                    Err(e) => panic!("unexpected preempt error {e:?}"),
                }
            }
            4 => {
                // Shared admission: a fresh id adopts a live donor's
                // written prefix without taking pages from the pool.
                let donor = (r >> 16) % ids;
                let Some(donor_used) = kv.seq_tokens(donor).filter(|&u| u > 0) else {
                    continue;
                };
                let prefix_tokens = (r >> 40) as usize % donor_used + 1;
                let prefix_pages: Vec<u32> = kv.seq_pages(donor).expect("live")
                    [..kv.config().pages_for(prefix_tokens)]
                    .to_vec();
                match kv.alloc_shared(id, &prefix_pages, prefix_tokens) {
                    Ok(n) => {
                        assert_eq!(n, prefix_pages.len());
                        assert_eq!(kv.live_pages(), live_before, "sharing takes no pages");
                        assert_eq!(kv.free_pages(), free_before);
                        assert_eq!(kv.seq_tokens(id), Some(prefix_tokens));
                        for &p in &prefix_pages {
                            assert!(kv.page_refs(p) >= 2);
                        }
                    }
                    Err(KvError::AlreadyAllocated(e)) => assert_eq!(e, id),
                    Err(KvError::InvalidShare) => {
                        // Only legal when part of the donor's prefix sits
                        // on the host tier — swapped KV cannot be shared.
                        assert!(
                            prefix_pages
                                .iter()
                                .any(|&p| kv.page_location(p) == PageLocation::Host),
                            "share of resident live pages was refused"
                        );
                        assert_eq!(kv.live_pages(), live_before);
                    }
                    Err(e) => panic!("unexpected alloc_shared error {e:?}"),
                }
            }
            5 => {
                // External retain (the prefix index pinning a page). Host-
                // resident pages are not pinnable, so pick among the
                // device-resident ones.
                let Some(page) = kv.seq_tokens(id).and_then(|_| {
                    let pages: Vec<u32> = kv
                        .seq_pages(id)
                        .expect("live")
                        .iter()
                        .copied()
                        .filter(|&p| kv.page_location(p) == PageLocation::Device)
                        .collect();
                    if pages.is_empty() {
                        None
                    } else {
                        Some(pages[(r >> 24) as usize % pages.len()])
                    }
                }) else {
                    continue;
                };
                let refs_before = kv.page_refs(page);
                kv.retain_pages(&[page]).expect("live page retains");
                assert_eq!(kv.page_refs(page), refs_before + 1);
                assert_eq!(kv.live_pages(), live_before);
                retained.push(page);
            }
            7 => {
                // Swap-out: move a tail slice of a live sequence's
                // exclusively-held device pages to the host tier.
                let Some(_) = kv.seq_tokens(id) else { continue };
                let exclusive: Vec<u32> = kv
                    .seq_pages(id)
                    .expect("live")
                    .iter()
                    .rev()
                    .copied()
                    .filter(|&p| {
                        kv.page_refs(p) == 1 && kv.page_location(p) == PageLocation::Device
                    })
                    .collect();
                if exclusive.is_empty() {
                    continue;
                }
                let take = (r >> 40) as usize % exclusive.len() + 1;
                let plan = &exclusive[..take];
                let host_before = kv.host_live_pages();
                let seq_host_before = kv.seq_host_pages(id);
                let used_before = kv.used_tokens();
                match kv.swap_out(id, plan) {
                    Ok(()) => {
                        // Tier move, not a free: identities, refcounts and
                        // written slots all survive; device frames return.
                        assert_eq!(kv.live_pages(), live_before);
                        assert_eq!(kv.free_pages(), free_before + take);
                        assert_eq!(kv.host_live_pages(), host_before + take);
                        assert_eq!(kv.used_tokens(), used_before);
                        for &p in plan {
                            assert_eq!(kv.page_refs(p), 1, "refcount survived the move");
                            assert_eq!(kv.page_location(p), PageLocation::Host);
                        }
                        assert_eq!(kv.seq_host_pages(id), seq_host_before + take);
                    }
                    Err(KvError::OutOfHostPages { needed, free }) => {
                        assert_eq!(needed, take);
                        assert!(free < take, "atomic failure must be real");
                        assert_eq!(kv.host_live_pages(), host_before, "failed swap moved pages");
                        assert_eq!(kv.free_pages(), free_before);
                    }
                    Err(e) => panic!("unexpected swap_out error {e:?}"),
                }
            }
            8 => {
                // Swap-in: restore a sequence's host pages to the device.
                let host_held = kv.seq_host_pages(id);
                let used_before = kv.used_tokens();
                match kv.swap_in(id) {
                    Ok(n) => {
                        assert_eq!(n, host_held);
                        assert_eq!(kv.seq_host_pages(id), 0);
                        assert_eq!(kv.seq_resident(id), Some(true));
                        assert_eq!(kv.live_pages(), live_before);
                        assert_eq!(kv.used_tokens(), used_before);
                        assert_eq!(kv.free_pages(), free_before - n);
                    }
                    Err(KvError::UnknownSeq(_)) => assert!(kv.seq_tokens(id).is_none()),
                    Err(KvError::OutOfPages { needed, free }) => {
                        assert_eq!(needed, host_held);
                        assert!(free < host_held, "atomic failure must be real");
                        assert_eq!(
                            kv.seq_host_pages(id),
                            host_held,
                            "failed restore moved pages"
                        );
                    }
                    Err(e) => panic!("unexpected swap_in error {e:?}"),
                }
            }
            9 => {
                // KV-sparsity eviction: drop a subset of a live
                // sequence's fully-written device-resident pages and
                // check the page-aligned shrinkage; shared or pinned
                // frames must survive for their other holders.
                let Some(used) = kv.seq_tokens(id) else {
                    continue;
                };
                let table: Vec<u32> = kv.seq_pages(id).expect("live").to_vec();
                let full = (used / page_size).min(table.len());
                if (r >> 20) & 1 == 1 && used % page_size != 0 && full < table.len() {
                    // Illegal pick: the partially filled tail page. The
                    // release must fail atomically.
                    let tail = table[full];
                    assert_eq!(
                        kv.release_seq_pages(id, &[tail]),
                        Err(KvError::InvalidEvict)
                    );
                    assert_eq!(kv.seq_tokens(id), Some(used), "failed evict mutated seq");
                    assert_eq!(kv.live_pages(), live_before);
                    continue;
                }
                let legal: Vec<u32> = table[..full]
                    .iter()
                    .copied()
                    .filter(|&p| kv.page_location(p) == PageLocation::Device)
                    .collect();
                if legal.is_empty() {
                    continue;
                }
                let take = (r >> 40) as usize % legal.len() + 1;
                let picked = &legal[..take];
                let exclusive = picked.iter().filter(|&&p| kv.page_refs(p) == 1).count();
                let shared: Vec<(u32, u32)> = picked
                    .iter()
                    .map(|&p| (p, kv.page_refs(p)))
                    .filter(|&(_, refs)| refs > 1)
                    .collect();
                let freed = kv
                    .release_seq_pages(id, picked)
                    .expect("fully-written device pages evict");
                assert_eq!(freed, exclusive, "freed exactly the exclusive frames");
                assert_eq!(
                    kv.seq_tokens(id),
                    Some(used - take * page_size),
                    "page-aligned shrinkage"
                );
                assert_eq!(kv.live_pages(), live_before - freed);
                assert_eq!(kv.free_pages(), free_before + freed);
                for &(p, refs) in &shared {
                    assert_eq!(kv.page_refs(p), refs - 1, "shared frame survived");
                }
            }
            _ => {
                // External release of one previously retained page.
                let Some(page) = retained.pop() else { continue };
                let refs_before = kv.page_refs(page);
                let freed = kv.release_pages(&[page]).expect("was retained");
                assert_eq!(freed, usize::from(refs_before == 1));
                assert_eq!(kv.free_pages(), free_before + freed);
            }
        }
        kv.check_invariants().expect("pool invariant violated");
        let s = kv.stats();
        assert!(s.occupancy <= 1.0, "occupancy over capacity");
        // Device frames: live-on-device + free == capacity (host-resident
        // pages hold host frames, not device ones).
        assert_eq!(
            s.live_pages - s.host_live_pages + s.free_pages,
            s.capacity_pages,
            "device frame leak"
        );
        assert!(
            s.host_live_pages <= s.host_capacity_pages,
            "host overcommit"
        );
        assert_eq!(s.allocated_total, s.freed_total + s.live_pages as u64);
    }
    (kv, retained)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random alloc/extend/free/preempt/share/retain/release/swap streams
    /// never violate the pool's conservation invariants (tier residency
    /// included — every live page in exactly one tier, refcounts
    /// surviving tier moves), and draining every survivor (sequences and
    /// external retains) afterwards returns the pool to a fully-free,
    /// leak-free state across both tiers.
    #[test]
    fn random_op_streams_conserve_pages(
        page_size in 1usize..32,
        pages in 1usize..256,
        host_pages in 0usize..64,
        ids in 1u64..24,
        ops in 1usize..400,
        seed in 0u64..10_000,
    ) {
        let (mut kv, retained) = drive_ops(page_size, pages, host_pages, ids, ops, seed);
        for id in 0..ids {
            let _ = kv.free(id);
        }
        if !retained.is_empty() {
            kv.release_pages(&retained).expect("retained pages release");
        }
        let s = kv.stats();
        prop_assert!(s.conserved(), "leak after draining: {s:?}");
        prop_assert_eq!(s.free_pages, s.capacity_pages);
        prop_assert_eq!(s.host_live_pages, 0, "host tier drained");
        prop_assert_eq!(s.used_tokens, 0);
        prop_assert_eq!(kv.shared_pages(), 0);
        kv.check_invariants().expect("pool invariant violated");
    }

    /// Reservations (static padded batching's worst case) obey the same
    /// conservation: used tokens never exceed reserved slots, occupancy
    /// stays bounded, and frees return everything.
    #[test]
    fn reservations_conserve_and_bound_fragmentation(
        page_size in 1usize..32,
        n_seqs in 1usize..16,
        used in 1usize..64,
        slack in 0usize..128,
        seed in 0u64..10_000,
    ) {
        let reserved = used + slack;
        let pages_per = reserved.div_ceil(page_size);
        let mut kv = PagedKvCache::new(KvConfig::new(page_size, pages_per * n_seqs));
        for id in 0..n_seqs as u64 {
            let take = kv.alloc_reserved(id ^ seed, used, reserved).expect("pool sized to fit");
            prop_assert_eq!(take, pages_per);
        }
        prop_assert!((kv.occupancy() - 1.0).abs() < 1e-9, "pool exactly full");
        prop_assert!(kv.fragmentation() >= 0.0 && kv.fragmentation() < 1.0);
        // Extending inside the reservation takes no pages.
        if slack > 0 {
            prop_assert_eq!(kv.extend(seed, slack).expect("within reservation"), 0);
        }
        for id in 0..n_seqs as u64 {
            kv.free(id ^ seed).expect("freed exactly once");
        }
        prop_assert!(kv.stats().conserved());
        kv.check_invariants().expect("pool invariant violated");
    }

    /// A chain of sequences sharing one donor's prefix: every sharer's
    /// copy-on-write and growth stays private, frees in any order never
    /// strand or double-free a page, and the books balance.
    #[test]
    fn shared_prefix_chains_conserve_across_interleavings(
        page_size in 2usize..32,
        full_pages in 1usize..6,
        partial in 1usize..31,
        sharers in 1usize..8,
        grow in 1usize..48,
        seed in 0u64..10_000,
    ) {
        let partial = partial.min(page_size - 1);
        let donor_tokens = full_pages * page_size + partial;
        let pool = (full_pages + 1) * (sharers + 1) + sharers * (grow / page_size + 2);
        let mut kv = PagedKvCache::new(KvConfig::new(page_size, pool));
        kv.alloc(0, donor_tokens).expect("pool sized for donor");
        let donor_pages: Vec<u32> = kv.seq_pages(0).expect("live").to_vec();
        for s in 1..=sharers as u64 {
            // Every sharer adopts the full donor prefix including the
            // partially written boundary page...
            kv.alloc_shared(s, &donor_pages, donor_tokens).expect("pool sized");
            // ...then grows, which must copy that boundary page.
            let cow_before = kv.stats().cow_copies;
            kv.extend(s, grow).expect("pool sized for growth");
            prop_assert_eq!(kv.stats().cow_copies, cow_before + 1);
            prop_assert_eq!(kv.seq_tokens(s), Some(donor_tokens + grow));
            kv.check_invariants().expect("pool invariant violated");
        }
        // The boundary page is exclusive to the donor again; full prefix
        // pages are shared by everyone.
        prop_assert_eq!(kv.page_refs(donor_pages[full_pages]), 1);
        for &p in &donor_pages[..full_pages] {
            prop_assert_eq!(kv.page_refs(p), sharers as u32 + 1);
        }
        // Free in a seed-dependent interleaving: donor first or last.
        let order: Vec<u64> = if seed % 2 == 0 {
            (0..=sharers as u64).collect()
        } else {
            (0..=sharers as u64).rev().collect()
        };
        for id in order {
            kv.free(id).expect("freed exactly once");
            kv.check_invariants().expect("pool invariant violated");
        }
        prop_assert!(kv.stats().conserved());
    }

    /// End-to-end: decode serving over a random trace frees every page it
    /// allocates, under both policies, even when a tiny pool forces
    /// admission throttling and preemption.
    #[test]
    fn decode_runs_leak_no_pages(
        n in 1usize..24,
        rate_centirps in 1000u64..40_000,
        mean_out in 2u64..48,
        tiny_pool in 0u8..2,
        seed in 0u64..10_000,
    ) {
        let trace = DecodeTrace::poisson(
            &DatasetSpec::mnli(),
            &DecodeSpec::geometric(mean_out as f64, 1, 96),
            n,
            rate_centirps as f64 / 100.0,
            seed,
        );
        for policy in [
            DecodePolicy::ContinuousPaddingFree { token_budget: 128 },
            DecodePolicy::StaticPadded { max_batch: 8 },
        ] {
            let mut builder = proptest_builder(policy);
            if tiny_pool == 1 {
                // Just enough for one worst-case context plus headroom:
                // forces the out-of-pages admission signal and preemption
                // without ever making a single request unservable.
                builder = builder.kv_pages(2 * (128usize + 96).div_ceil(PAGE_SIZE) + 2);
            }
            let cfg = builder.build().expect("valid proptest config");
            let report = simulate_decode_trace(&cfg, &trace);
            prop_assert_eq!(report.requests, trace.len());
            prop_assert!(report.kv.conserved(),
                "{} leaked pages: {:?}", report.policy, report.kv);
            prop_assert!(report.kv_peak_occupancy <= 1.0 + 1e-9);
            prop_assert!(report.real_tokens >= trace.total_tokens() - trace.len(),
                "served fewer rows than the no-preemption floor");
        }
    }

    /// End-to-end with prefix caching: shared-prefix traces served with
    /// the radix index keep every pool and tree invariant (checked every
    /// iteration via `verify_invariants`) and drain leak-free, tiny pools
    /// included.
    #[test]
    fn prefix_cached_decode_runs_leak_no_pages(
        n in 1usize..20,
        rate_centirps in 1000u64..40_000,
        mean_out in 2u64..32,
        tiny_pool in 0u8..2,
        seed in 0u64..10_000,
    ) {
        let spec = SharedPrefixSpec {
            vocab: 256,
            num_system_prompts: 3,
            system_tokens: 48,
            num_templates: 4,
            template_tokens: 24,
            unique_min: 4,
            unique_max: 24,
            zipf_exponent: 1.0,
        };
        let arrivals = ArrivalTrace::bursty(
            &DatasetSpec::mnli(), n, rate_centirps as f64 / 100.0, 0.2, 0.3, seed);
        let trace = spec.decode_trace(
            &DecodeSpec::geometric(mean_out as f64, 1, 48), arrivals.arrival_s, seed);
        let mut builder = proptest_builder(
            DecodePolicy::ContinuousPaddingFree { token_budget: 128 })
            .prefix_caching(true);
        if tiny_pool == 1 {
            // One worst-case context plus headroom: index eviction must
            // contend with decode allocation.
            builder = builder.kv_pages(2 * (128usize + 48).div_ceil(PAGE_SIZE) + 2);
        }
        let cfg = builder.build().expect("valid proptest config");
        let report = simulate_decode_trace(&cfg, &trace);
        prop_assert_eq!(report.requests, trace.len());
        prop_assert!(report.kv.conserved(),
            "prefix-cached run leaked pages: {:?}", report.kv);
        prop_assert_eq!(report.prefix_hits + report.prefix_misses, trace.len());
        let ix = report.prefix.expect("index stats attached");
        prop_assert_eq!(ix.inserted_pages, ix.evicted_pages + ix.pages_held as u64);
        prop_assert!(report.kv_peak_occupancy <= 1.0 + 1e-9);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// End-to-end under swap-to-host preemption on a tiny pool: random
    /// long-output traces force eviction, and every run keeps the tiered
    /// pool's invariants (checked every iteration — no decode step reads
    /// a host-resident page, every page in exactly one tier) and drains
    /// both tiers leak-free. Transfer accounting balances: pages out ≥
    /// pages back, and whatever swapped also restored or freed.
    #[test]
    fn swap_to_host_decode_runs_leak_no_pages(
        n in 1usize..20,
        rate_centirps in 5000u64..50_000,
        mean_out in 16u64..96,
        host_pages in 2usize..64,
        seed in 0u64..10_000,
    ) {
        let trace = DecodeTrace::poisson(
            &DatasetSpec::cola(),
            &DecodeSpec::geometric(mean_out as f64, 4, 128),
            n,
            rate_centirps as f64 / 100.0,
            seed,
        );
        let cfg = proptest_builder(DecodePolicy::ContinuousPaddingFree { token_budget: 128 })
            .preempt(PreemptPolicy::SwapToHost)
            .host_pages(host_pages)
            // One worst-case context (64 + 128 tokens = 12 pages) plus slim
            // headroom: decode growth must evict, swap must engage.
            .kv_pages((64usize + 128).div_ceil(PAGE_SIZE) + 3)
            .build()
            .expect("valid proptest config");
        let report = simulate_decode_trace(&cfg, &trace);
        prop_assert_eq!(report.requests, trace.len());
        prop_assert!(report.kv.conserved(),
            "swap run leaked pages: {:?}", report.kv);
        prop_assert_eq!(report.kv.host_live_pages, 0, "host tier drained");
        prop_assert!(report.kv.swapped_in_pages <= report.kv.swapped_out_pages);
        if let Some(s) = report.swap {
            prop_assert_eq!(s.out_pages, report.kv.swapped_out_pages);
            prop_assert_eq!(s.in_pages, report.kv.swapped_in_pages);
        }
        // Every swap preemption ends in a restore or a demotion back to
        // recompute (demotions are counted among the fallbacks).
        prop_assert!(report.restores as u64 <= report.swap_preemptions);
        prop_assert!(report.swap_preemptions - report.restores as u64
            <= report.swap_fallbacks);
        prop_assert!(report.kv_peak_occupancy <= 1.0 + 1e-9);
    }

    /// End-to-end under per-sequence KV sparsity: random traces served
    /// under sliding-window and heavy-hitter retention (tiny pools
    /// included, so eviction races admission and preemption) keep every
    /// pool invariant, agree with the pool on eviction counts, and drain
    /// leak-free with exactly the trace's goodput served.
    #[test]
    fn sparse_decode_runs_leak_no_pages(
        n in 1usize..20,
        rate_centirps in 1000u64..40_000,
        mean_out in 8u64..64,
        recent_pages in 1usize..6,
        heavy_pages in 1usize..6,
        tiny_pool in 0u8..2,
        seed in 0u64..10_000,
    ) {
        let trace = DecodeTrace::poisson(
            &DatasetSpec::mnli(),
            &DecodeSpec::geometric(mean_out as f64, 1, 128),
            n,
            rate_centirps as f64 / 100.0,
            seed,
        );
        let recent = recent_pages * PAGE_SIZE;
        for sparsity in [
            KvSparsityPolicy::SlidingWindow { recent },
            KvSparsityPolicy::HeavyHitter { recent, heavy: heavy_pages * PAGE_SIZE },
        ] {
            let mut builder = proptest_builder(
                DecodePolicy::ContinuousPaddingFree { token_budget: 128 })
                .kv_sparsity(sparsity);
            if tiny_pool == 1 {
                // One worst-case context plus headroom: eviction must
                // interleave with preemption and admission throttling.
                builder = builder.kv_pages(2 * (128usize + 128).div_ceil(PAGE_SIZE) + 2);
            }
            let cfg = builder.build().expect("valid sparse proptest config");
            let report = simulate_decode_trace(&cfg, &trace);
            prop_assert_eq!(report.requests, trace.len());
            prop_assert!(report.kv.conserved(),
                "{} leaked pages: {:?}", report.policy, report.kv);
            prop_assert_eq!(report.kv.sparsity_evicted_pages, report.sparsity_dropped_pages,
                "pool and metrics disagree on evictions");
            prop_assert!(report.sparsity_freed_pages <= report.sparsity_dropped_pages);
            prop_assert!(report.attended_tokens <= report.cached_ctx_tokens);
            // Goodput conservation: recompute re-prefills are metered as
            // overhead, so exactly the trace's rows count as served.
            prop_assert_eq!(report.real_tokens, trace.total_tokens() - trace.len(),
                "served rows must equal the no-preemption floor exactly");
            prop_assert!(report.kv_peak_occupancy <= 1.0 + 1e-9);
        }
    }
}

/// A small pool holding every kind of page the two release paths must
/// tell apart. Sequence 1 is the subject: full pages, a partially
/// written tail (unless its length is page-aligned), a prefix shared
/// with sequence 3, pages pinned by an external index (some twice) and
/// pages swapped to the host. Sequence 2's pages are foreign to it; the
/// remaining ids are free. Deterministic per seed, so every call under
/// test starts from the same state.
fn release_fixture(seed: u64) -> PagedKvCache {
    let ps = 4;
    let mut kv = PagedKvCache::new(KvConfig::new(ps, 16).with_host_pages(4));
    let mut h = seed | 1;
    let mut next = move || {
        h ^= h << 13;
        h ^= h >> 7;
        h ^= h << 17;
        h.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 11
    };
    let full = 3 + (next() % 6) as usize;
    let tail = (next() % ps as u64) as usize;
    kv.alloc(1, full * ps + tail).unwrap();
    kv.alloc(2, 2 * ps).unwrap();
    let table = kv.seq_pages(1).unwrap().to_vec();
    let shared = (next() % 3) as usize;
    if shared > 0 {
        kv.alloc_shared(3, &table[..shared], shared * ps).unwrap();
    }
    for &p in &table[..full] {
        match next() % 4 {
            0 => kv.retain_pages(&[p]).unwrap(),
            1 => kv.retain_pages(&[p, p]).unwrap(),
            _ => {}
        }
    }
    let to_host: Vec<u32> = table
        .iter()
        .copied()
        .filter(|&p| kv.page_refs(p) == 1 && next() % 3 == 0)
        .take(4)
        .collect();
    if !to_host.is_empty() {
        kv.swap_out(1, &to_host).unwrap();
    }
    kv.check_invariants().unwrap();
    kv
}

/// Everything the release paths may touch: the pool counters, each
/// sequence's table and cached length, and every page's references,
/// pins, tier and written slots.
type PoolState = (
    pit::kv::KvStats,
    Vec<(Option<Vec<u32>>, Option<usize>)>,
    Vec<(u32, u32, PageLocation, usize)>,
);

fn pool_state(kv: &PagedKvCache) -> PoolState {
    let seqs = (1..=3u64)
        .map(|s| (kv.seq_pages(s).map(<[u32]>::to_vec), kv.seq_tokens(s)))
        .collect();
    let pages = (0..kv.config().total_ids() as u32)
        .map(|p| {
            (
                kv.page_refs(p),
                kv.page_ext_refs(p),
                kv.page_location(p),
                kv.page_written(p),
            )
        })
        .collect();
    (kv.stats(), seqs, pages)
}

/// `release_seq_pages` as its doc comment states it: every listed page
/// in the sequence's table, device-resident, listed once and a fully
/// written page (not the partial tail); the result is the pages whose
/// last reference this sequence held.
fn documented_evict(kv: &PagedKvCache, seq: u64, pages: &[u32]) -> Result<usize, KvError> {
    if pages.is_empty() {
        return Ok(0);
    }
    let table = kv.seq_pages(seq).ok_or(KvError::UnknownSeq(seq))?;
    let used = kv.seq_tokens(seq).unwrap();
    let ps = kv.config().page_size;
    for (i, &p) in pages.iter().enumerate() {
        let Some(pos) = table.iter().position(|&q| q == p) else {
            return Err(KvError::InvalidEvict);
        };
        if pages[..i].contains(&p)
            || (pos + 1) * ps > used
            || kv.page_location(p) != PageLocation::Device
        {
            return Err(KvError::InvalidEvict);
        }
    }
    Ok(pages.iter().filter(|&&p| kv.page_refs(p) == 1).count())
}

/// `release_slot_positions` as its doc comment states it: positions
/// strictly ascending, each naming a page of the table that
/// `documented_evict` accepts.
fn documented_evict_at(kv: &PagedKvCache, seq: u64, at: &[usize]) -> Result<usize, KvError> {
    if at.is_empty() {
        return Ok(0);
    }
    let table = kv.seq_pages(seq).ok_or(KvError::UnknownSeq(seq))?;
    if at.windows(2).any(|w| w[0] >= w[1]) || at.iter().any(|&i| i >= table.len()) {
        return Err(KvError::InvalidEvict);
    }
    let pages: Vec<u32> = at.iter().map(|&i| table[i]).collect();
    documented_evict(kv, seq, &pages)
}

/// `release_pages` as its doc comment states it: one external reference
/// dropped per listed page, so a page listed `n` times needs `n` pins;
/// the result is the pages whose last reference dropped.
fn documented_release(kv: &PagedKvCache, pages: &[u32]) -> Result<usize, KvError> {
    let ids = kv.config().total_ids() as u32;
    let count = |p: u32| pages.iter().filter(|&&q| q == p).count() as u32;
    if pages
        .iter()
        .any(|&p| p >= ids || kv.page_ext_refs(p) < count(p))
    {
        return Err(KvError::InvalidShare);
    }
    let mut distinct = pages.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    Ok(distinct
        .iter()
        .filter(|&&p| kv.page_refs(p) == count(p))
        .count())
}

/// Runs `op` on a fresh fixture and checks it against `expect` (computed
/// on the same state first): equal results; an `Err` leaves the pool
/// exactly as it was; either way the invariants hold.
fn check_release(
    seed: u64,
    what: &str,
    expect: impl Fn(&PagedKvCache) -> Result<usize, KvError>,
    op: impl FnOnce(&mut PagedKvCache) -> Result<usize, KvError>,
) -> PoolState {
    let mut kv = release_fixture(seed);
    let want = expect(&kv);
    let before = pool_state(&kv);
    let got = op(&mut kv);
    assert_eq!(got, want, "{what}");
    kv.check_invariants()
        .unwrap_or_else(|e| panic!("{what}: {e}"));
    if got.is_err() {
        assert_eq!(
            pool_state(&kv),
            before,
            "{what}: a refused release changed the pool"
        );
    }
    pool_state(&kv)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The sparsity and index release paths keep their documented rules
    /// for page lists in table order, reversed, rotated, repeated, with
    /// foreign, free, out-of-range, tail, host-resident and unpinned
    /// pages, and for position lists ascending, descending, repeated,
    /// past the table and at the tail: the same `Ok(freed)` or `KvError`
    /// as the rules give, the survivors' table order on success, and no
    /// change at all on failure.
    #[test]
    fn release_paths_keep_the_documented_rules(seed in 1u64..=1_000_000, pick in 0u64..=u64::MAX) {
        let kv = release_fixture(seed);
        let table = kv.seq_pages(1).unwrap().to_vec();
        let foreign = kv.seq_pages(2).unwrap()[0];
        let ids = kv.config().total_ids() as u32;
        let free = (0..ids).find(|&p| kv.page_refs(p) == 0).expect("a free id");
        let host: Vec<u32> = table
            .iter()
            .copied()
            .filter(|&p| kv.page_location(p) == PageLocation::Host)
            .collect();
        let subset: Vec<u32> = table
            .iter()
            .enumerate()
            .filter(|&(i, _)| pick >> (i % 64) & 1 == 1)
            .map(|(_, &p)| p)
            .collect();
        let legal: Vec<u32> = table
            .iter()
            .enumerate()
            .filter(|&(i, &p)| {
                (i + 1) * kv.config().page_size <= kv.seq_tokens(1).unwrap()
                    && kv.page_location(p) == PageLocation::Device
            })
            .map(|(_, &p)| p)
            .collect();
        let with = |extra: &[u32], at: usize| {
            let mut l = subset.clone();
            let at = at.min(l.len());
            l.splice(at..at, extra.iter().copied());
            l
        };
        let mut rotated = subset.clone();
        if !rotated.is_empty() {
            let k = (pick % rotated.len() as u64) as usize;
            rotated.rotate_left(k);
        }
        let evictions: Vec<(&str, Vec<u32>)> = vec![
            ("table order", subset.clone()),
            ("reversed", subset.iter().rev().copied().collect()),
            ("rotated", rotated),
            ("repeated", with(subset.first().map_or(&[][..], std::slice::from_ref), subset.len())),
            ("foreign", with(&[foreign], subset.len() / 2)),
            ("free", with(&[free], 0)),
            ("out of range", with(&[ids + 3], subset.len())),
            ("tail", with(&[*table.last().unwrap()], subset.len())),
            ("host", with(&host, subset.len() / 2)),
            ("whole table", table.clone()),
            ("every legal page", legal.clone()),
            ("legal reversed", legal.iter().rev().copied().collect()),
        ];
        for (what, list) in &evictions {
            let what = format!("release_seq_pages, {what}: {list:?} of {table:?}");
            let after = check_release(
                seed,
                &what,
                |kv| documented_evict(kv, 1, list),
                |kv| kv.release_seq_pages(1, list),
            );
            if documented_evict(&kv, 1, list).is_ok() {
                let survivors: Vec<u32> =
                    table.iter().copied().filter(|p| !list.contains(p)).collect();
                prop_assert_eq!(after.1[0].0.as_deref(), Some(&survivors[..]), "{}", what);
            }
        }
        prop_assert_eq!(
            check_release(seed, "unknown sequence", |_| Err(KvError::UnknownSeq(9)), |kv| {
                kv.release_seq_pages(9, &table)
            })
            .0,
            kv.stats()
        );
        // The same release by slot and table positions, as sparsity
        // compaction calls it.
        let positions: Vec<usize> = (0..table.len()).filter(|i| pick >> (i % 64) & 1 == 1).collect();
        let legal_at: Vec<usize> = (0..table.len()).filter(|&i| legal.contains(&table[i])).collect();
        let with_at = |extra: usize| {
            let mut l = positions.clone();
            l.push(extra);
            l
        };
        let position_lists: Vec<(&str, Vec<usize>)> = vec![
            ("ascending", positions.clone()),
            ("descending", positions.iter().rev().copied().collect()),
            ("repeated", with_at(positions.first().copied().unwrap_or(0))),
            ("tail", with_at(table.len() - 1)),
            ("past the table", with_at(table.len())),
            ("far past the table", with_at(usize::MAX)),
            ("every position", (0..table.len()).collect()),
            ("every legal position", legal_at.clone()),
        ];
        for (what, at) in &position_lists {
            let what = format!("release_slot_positions, {what}: {at:?} of {table:?}");
            let after = check_release(
                seed,
                &what,
                |kv| documented_evict_at(kv, 1, at),
                |kv| {
                    let slot = kv.slot(1).expect("seq 1 is live");
                    kv.release_slot_positions(slot, at)
                },
            );
            if documented_evict_at(&kv, 1, at).is_ok() {
                let survivors: Vec<u32> = (0..table.len())
                    .filter(|i| !at.contains(i))
                    .map(|i| table[i])
                    .collect();
                prop_assert_eq!(after.1[0].0.as_deref(), Some(&survivors[..]), "{}", what);
                // The same pages released by id leave the same pool.
                let mut by_id = release_fixture(seed);
                let pages: Vec<u32> = at.iter().map(|&i| table[i]).collect();
                by_id.release_seq_pages(1, &pages).expect("the same legal release");
                prop_assert_eq!(pool_state(&by_id), after, "{}", what);
            }
        }

        let pinned: Vec<u32> = table.iter().copied().filter(|&p| kv.page_ext_refs(p) > 0).collect();
        let every_pin: Vec<u32> = pinned
            .iter()
            .flat_map(|&p| std::iter::repeat_n(p, kv.page_ext_refs(p) as usize))
            .collect();
        let unpinned = table
            .iter()
            .copied()
            .find(|&p| kv.page_ext_refs(p) == 0 && kv.page_refs(p) > 0)
            .unwrap_or(foreign);
        let mut over = every_pin.clone();
        over.extend(pinned.first());
        let releases: Vec<(&str, Vec<u32>)> = vec![
            ("each pinned page once", pinned.clone()),
            ("every pin", every_pin.clone()),
            ("every pin reversed", every_pin.iter().rev().copied().collect()),
            ("one pin too many", over),
            ("pins then an unpinned page", [&every_pin[..], &[unpinned]].concat()),
            ("free", vec![free]),
            ("out of range", [&pinned[..], &[ids]].concat()),
            ("host", host.clone()),
        ];
        for (what, list) in &releases {
            let what = format!("release_pages, {what}: {list:?}");
            check_release(
                seed,
                &what,
                |kv| documented_release(kv, list),
                |kv| kv.release_pages(list),
            );
        }
    }
}
