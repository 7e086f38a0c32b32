//! `rm_dup_trans` — duplicate-transaction removal, the second-hottest
//! function of the paper's LCM profile (25.5% of runtime, §4.1).
//!
//! Identical transactions in a (projected) database are merged into one
//! weighted representative. The original implementation finds duplicates
//! by bucket (radix) sorting with a **singly-linked list per bucket**;
//! because those lists are built once and then only traversed, the paper
//! applies **P3 — aggregation**, packing list nodes into cache-line
//! supernodes to cut dereferences and improve spatial locality.
//!
//! Both layouts are implemented here behind one entry point so the tuned
//! and untuned LCM variants differ in exactly the data structure:
//!
//! * [`BucketImpl::Linked`] — one node per transaction, heads in a bucket
//!   array ([`also::aggregate::NodeList`]);
//! * [`BucketImpl::Aggregated`] — supernode-chunked lists sharing one
//!   pool ([`also::aggregate::ChunkedList`]).

use crate::projdb::TransHead;
use also::aggregate::{ChunkPool, ChunkedList, NodeList, U32_LINE_CAPACITY};
use memsim::Probe;

/// Which bucket-list layout `rm_dup_trans` uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BucketImpl {
    /// Baseline: classic one-element linked-list nodes.
    Linked,
    /// P3: cache-line supernodes.
    Aggregated,
}

/// Word-wise FNV-1a over a transaction's items — the bucket key.
#[inline]
fn hash_items(items: &[u32]) -> u64 {
    let mut h = fpm::hash::Fnv::new();
    for &i in items {
        h.word(u64::from(i));
    }
    h.finish()
}

/// Merges identical transactions: returns the deduplicated headers in
/// first-occurrence (arena) order, weights summed. The arena itself is
/// left untouched (dead item runs are simply unreferenced — exactly what
/// the original does, trading arena slack for copy-free merging).
pub fn rm_dup_trans<P: Probe>(
    items: &[u32],
    heads: Vec<TransHead>,
    which: BucketImpl,
    probe: &mut P,
) -> Vec<TransHead> {
    let n = heads.len();
    if n < 2 {
        return heads;
    }
    let n_buckets = n.next_power_of_two();
    let mask = (n_buckets - 1) as u64;
    let tr = |h: &TransHead| &items[h.off as usize..h.end() as usize];

    // Extra weight accumulated onto a representative; u32::MAX marks a
    // transaction merged away.
    let mut extra = vec![0u32; n];
    let mut dead = vec![false; n];

    match which {
        BucketImpl::Linked => {
            let mut bucket_heads = vec![NodeList::<u32>::EMPTY; n_buckets];
            let mut nodes: NodeList<u32> = NodeList::new();
            for (tid, h) in heads.iter().enumerate() {
                let b = (hash_items(tr(h)) & mask) as usize;
                nodes.push_front(&mut bucket_heads[b], tid as u32);
                probe.write(memsim::addr_of(&bucket_heads[b]), 4);
                probe.instr(14);
            }
            // Traverse every bucket list: one dependent load per node —
            // the traversal the paper aggregates.
            let mut group: Vec<u32> = Vec::new();
            for &bh in &bucket_heads {
                group.clear();
                let mut cur = bh;
                while cur != NodeList::<u32>::EMPTY {
                    probe.read_dep(nodes.node_addr(cur), 8);
                    probe.instr(8);
                    let (tid, next) = nodes.node(cur);
                    group.push(tid);
                    cur = next;
                }
                // push_front reversed insertion order; restore tid order so
                // the smallest tid is the representative
                group.reverse();
                merge_group(&group, &heads, tr, &mut extra, &mut dead, probe);
            }
        }
        BucketImpl::Aggregated => {
            let mut pool: ChunkPool<u32, U32_LINE_CAPACITY> = ChunkPool::with_capacity(n);
            let mut lists = vec![ChunkedList::new(); n_buckets];
            for (tid, h) in heads.iter().enumerate() {
                let b = (hash_items(tr(h)) & mask) as usize;
                lists[b].push(&mut pool, tid as u32);
                probe.write(memsim::addr_of(&lists[b]), 4);
                probe.instr(14);
            }
            let mut group: Vec<u32> = Vec::new();
            for l in &lists {
                group.clear();
                // one dependent load per *supernode*, streaming within it
                l.for_each_chunk(&pool, |chunk| {
                    let (pa, la) = memsim::slice_span(chunk);
                    probe.read_dep(pa, la);
                    probe.instr(2 * chunk.len() as u64 + 6);
                    group.extend_from_slice(chunk);
                });
                merge_group(&group, &heads, tr, &mut extra, &mut dead, probe);
            }
        }
    }

    heads
        .into_iter()
        .enumerate()
        .filter_map(|(tid, mut h)| {
            if dead[tid] {
                None
            } else {
                h.weight += extra[tid];
                Some(h)
            }
        })
        .collect()
}

/// In one bucket group (same hash), find truly-equal transactions and
/// merge later ones into the earliest.
fn merge_group<'a, P: Probe>(
    group: &[u32],
    heads: &[TransHead],
    tr: impl Fn(&TransHead) -> &'a [u32],
    extra: &mut [u32],
    dead: &mut [bool],
    probe: &mut P,
) {
    for (gi, &a) in group.iter().enumerate() {
        if dead[a as usize] {
            continue;
        }
        let ta = tr(&heads[a as usize]);
        for &b in &group[gi + 1..] {
            if dead[b as usize] {
                continue;
            }
            let tb = tr(&heads[b as usize]);
            let (pa, la) = memsim::slice_span(ta);
            probe.read(pa, la);
            let (pb, lb) = memsim::slice_span(tb);
            probe.read(pb, lb);
            probe.instr(2 * ta.len().min(tb.len()) as u64 + 8);
            if ta == tb {
                extra[a as usize] += heads[b as usize].weight + extra[b as usize];
                extra[b as usize] = 0;
                dead[b as usize] = true;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::projdb::ProjDb;
    use memsim::NullProbe;

    #[test]
    fn bucket_hash_is_pinned() {
        assert_eq!(hash_items(&[1, 2, 3]), 0xd0aa_6218_672c_f5ab);
        assert_eq!(hash_items(&[]), fpm::hash::OFFSET);
    }

    fn heads_of(transactions: &[Vec<u32>]) -> (Vec<u32>, Vec<TransHead>) {
        let db = ProjDb::from_ranked(transactions);
        (db.items, db.heads)
    }

    fn run(transactions: &[Vec<u32>], which: BucketImpl) -> Vec<(Vec<u32>, u32)> {
        let (items, heads) = heads_of(transactions);
        let merged = rm_dup_trans(&items, heads, which, &mut NullProbe);
        merged
            .iter()
            .map(|h| {
                (
                    items[h.off as usize..h.end() as usize].to_vec(),
                    h.weight,
                )
            })
            .collect()
    }

    #[test]
    fn merges_duplicates_preserving_order() {
        let ts = vec![
            vec![0u32, 1],
            vec![2],
            vec![0, 1],
            vec![2],
            vec![0, 1],
            vec![3],
        ];
        for which in [BucketImpl::Linked, BucketImpl::Aggregated] {
            let out = run(&ts, which);
            assert_eq!(
                out,
                vec![(vec![0, 1], 3), (vec![2], 2), (vec![3], 1)],
                "{which:?}"
            );
        }
    }

    #[test]
    fn both_impls_agree_on_pseudorandom_input() {
        let mut s = 5u64;
        let mut rnd = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let ts: Vec<Vec<u32>> = (0..300)
            .map(|_| {
                let len = (rnd() % 4) as usize;
                let mut t: Vec<u32> = (0..=len as u32).map(|_| (rnd() % 6) as u32).collect();
                t.sort_unstable();
                t.dedup();
                t
            })
            .collect();
        let a = run(&ts, BucketImpl::Linked);
        let b = run(&ts, BucketImpl::Aggregated);
        assert_eq!(a, b);
        // total weight preserved
        let total: u32 = a.iter().map(|(_, w)| w).sum();
        assert_eq!(total as usize, ts.len());
    }

    #[test]
    fn no_duplicates_is_identity() {
        let ts = vec![vec![0u32], vec![1], vec![2]];
        for which in [BucketImpl::Linked, BucketImpl::Aggregated] {
            let out = run(&ts, which);
            assert_eq!(out.len(), 3);
            assert!(out.iter().all(|(_, w)| *w == 1));
        }
    }

    #[test]
    fn single_and_empty() {
        assert_eq!(run(&[], BucketImpl::Linked).len(), 0);
        assert_eq!(run(&[vec![5]], BucketImpl::Aggregated).len(), 1);
    }

    #[test]
    fn respects_existing_weights() {
        let (items, mut heads) = heads_of(&[vec![0, 1], vec![0, 1]]);
        heads[0].weight = 5;
        heads[1].weight = 7;
        let merged = rm_dup_trans(&items, heads, BucketImpl::Linked, &mut NullProbe);
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].weight, 12);
    }
}
