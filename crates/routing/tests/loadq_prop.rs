//! Property tests pinning [`pamr_routing::LoadQueue`] and
//! [`pamr_routing::LoadTree`] against the naive selection scan they
//! replace.
//!
//! The queue's contract is *order-exact*: after any interleaving of bulk
//! rebuilds, eager updates, lazy invalidations (+ refresh) and partial
//! descending pops, its iteration must reproduce the
//! [`select_max`](pamr_routing::loadq::select_max) order over the current
//! positive loads — decreasing load, ties towards the smaller link id,
//! bit-for-bit. PR, XYI and their reference oracles rely on this exact
//! equivalence for their differential contracts, so the model here *is*
//! `select_max` run over a plain `Vec` shadow of the loads. Shrinking is
//! enabled (the vendored proptest records the choice tape), so failures
//! report minimal operation sequences; replay with
//! `PAMR_PROPTEST_SEED=<seed>`.

use pamr_mesh::LinkId;
use pamr_routing::loadq::select_max;
use pamr_routing::{LoadQueue, LoadTree};
use proptest::prelude::*;

/// Number of link slots the modelled queue operates over.
const SLOTS: usize = 24;

/// One step of the modelled interleaving.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Eagerly re-key one link to a new load (`0` removes it).
    Set(usize, u32),
    /// Update the authoritative load and lazily mark the link dirty; the
    /// queue must keep iterating on the stale key until the next refresh.
    LazySet(usize, u32),
    /// Resolve all pending lazy marks against the authoritative loads.
    Refresh,
    /// Walk the first `k` entries of a fresh descending cursor and check
    /// them against the naive order (stale keys included — pops between a
    /// lazy update and its refresh must still see the *previous* synced
    /// state).
    Pop(usize),
}

/// Strategy over [`Op`] (the stand-in proptest has no `prop_oneof!`; a
/// discriminant + payload tuple shrinks just as well).
fn op() -> impl Strategy<Value = Op> {
    (0u8..4, 0..SLOTS, 0u32..=6).prop_map(|(kind, l, v)| match kind {
        0 => Op::Set(l, v),
        1 => Op::LazySet(l, v),
        2 => Op::Refresh,
        _ => Op::Pop(l + v as usize),
    })
}

/// The full `select_max` order over the model's positive entries.
fn naive_order(model: &[f64]) -> Vec<(LinkId, f64)> {
    let mut active: Vec<(LinkId, f64)> = model
        .iter()
        .enumerate()
        .filter(|(_, &v)| v > 0.0)
        .map(|(i, &v)| (LinkId(i), v))
        .collect();
    let mut out = Vec::with_capacity(active.len());
    let mut k = 0;
    while let Some(e) = select_max(&mut active, k) {
        out.push(e);
        k += 1;
    }
    out
}

/// The load a [`LoadTree`] property step writes: small integers for ties,
/// `0` for "absent", and a negative value, which must also read as absent.
fn tree_load(code: u32) -> f64 {
    if code == 7 {
        -1.0
    } else {
        f64::from(code) * 0.5
    }
}

/// Asserts that `t` reports the naive maximum over `model` bit for bit,
/// and keys every slot (padding included) to its positive model load.
fn assert_tree_matches(t: &LoadTree, model: &[f64]) {
    let mut active: Vec<(LinkId, f64)> = model
        .iter()
        .enumerate()
        .filter(|(_, &v)| v > 0.0)
        .map(|(i, &v)| (LinkId(i), v))
        .collect();
    let expected = select_max(&mut active, 0);
    let got = t.peek_max();
    assert_eq!(got, expected);
    assert_eq!(
        got.map(|(_, v)| v.to_bits()),
        expected.map(|(_, v)| v.to_bits())
    );
    for (i, &v) in model.iter().enumerate() {
        let keyed = if v > 0.0 { v } else { 0.0 };
        assert_eq!(t.get(LinkId(i)).to_bits(), keyed.to_bits(), "slot {i}");
    }
}

/// Drains a fresh cursor and asserts it equals the naive order over the
/// queue's *synced* state (the loads as of the last refresh/eager set),
/// ties and bit patterns included.
fn assert_matches(q: &LoadQueue, synced: &[f64]) {
    let expected = naive_order(synced);
    let mut cursor = q.cursor();
    for (k, &(l, v)) in expected.iter().enumerate() {
        let got = cursor.next(q);
        assert_eq!(got, Some((l, v)), "entry {k} diverged");
        assert_eq!(got.unwrap().1.to_bits(), v.to_bits());
        // k-th-max random access agrees with sequential iteration.
        assert_eq!(q.kth_max(k), Some((l, v)));
    }
    assert_eq!(cursor.next(q), None, "queue held extra entries");
    assert_eq!(q.len(), expected.len());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn queue_reproduces_select_max_under_arbitrary_interleavings(
        init in prop::collection::vec(0u32..=6, 0..=SLOTS),
        ops in prop::collection::vec(op(), 0..=48),
    ) {
        // `loads` is the authoritative map; `synced` is what the queue has
        // been told about (diverges between a LazySet and the Refresh).
        let mut loads = vec![0.0f64; SLOTS];
        for (i, &v) in init.iter().enumerate() {
            loads[i] = v as f64;
        }
        let mut synced = loads.clone();
        let mut q = LoadQueue::new();
        q.rebuild(
            SLOTS,
            loads.iter().enumerate().map(|(i, &v)| (LinkId(i), v)),
        );
        assert_matches(&q, &synced);
        for op in &ops {
            match *op {
                Op::Set(l, v) => {
                    loads[l] = v as f64;
                    synced[l] = v as f64;
                    q.set(LinkId(l), v as f64);
                }
                Op::LazySet(l, v) => {
                    loads[l] = v as f64;
                    q.mark_dirty(LinkId(l));
                }
                Op::Refresh => {
                    q.refresh_with(|l| loads[l.index()]);
                    synced.copy_from_slice(&loads);
                }
                Op::Pop(k) => {
                    // Partial descending walk against the synced state: the
                    // first k entries of the naive order; past the end the
                    // cursor must be exhausted.
                    let expected = naive_order(&synced);
                    let mut cursor = q.cursor();
                    for e in expected.iter().take(k) {
                        prop_assert_eq!(cursor.next(&q), Some(*e));
                    }
                    if k >= expected.len() {
                        prop_assert_eq!(cursor.next(&q), None);
                    }
                }
            }
        }
        // Final full drain after resolving any pending marks.
        q.refresh_with(|l| loads[l.index()]);
        synced.copy_from_slice(&loads);
        assert_matches(&q, &synced);
    }

    #[test]
    fn rebuild_equals_incremental_construction(
        entries in prop::collection::vec((0..SLOTS, 0u32..=9), 0..=40),
    ) {
        // Building by rebuild and building by per-link sets from empty must
        // agree (last write per link wins).
        let mut loads = vec![0.0f64; SLOTS];
        for &(l, v) in &entries {
            loads[l] = v as f64;
        }
        let mut by_rebuild = LoadQueue::new();
        by_rebuild.rebuild(
            SLOTS,
            loads.iter().enumerate().map(|(i, &v)| (LinkId(i), v)),
        );
        let mut by_sets = LoadQueue::new();
        by_sets.fit(SLOTS);
        for &(l, v) in &entries {
            by_sets.set(LinkId(l), v as f64);
        }
        let drain = |q: &LoadQueue| {
            let mut cursor = q.cursor();
            let mut out = Vec::new();
            while let Some(e) = cursor.next(q) {
                out.push(e);
            }
            out
        };
        prop_assert_eq!(drain(&by_rebuild), drain(&by_sets));
        prop_assert_eq!(drain(&by_rebuild), naive_order(&loads));
    }

    #[test]
    fn tree_peek_max_is_the_naive_maximum_after_any_sets(
        pad in 0usize..=9,
        init in prop::collection::vec(0u32..=7, 0..=SLOTS),
        sets in prop::collection::vec((0..SLOTS, 0u32..=7), 0..=64),
    ) {
        // The tree is fitted to `pad` slots more than the model ever
        // writes: padding must never surface as a maximum.
        let n = SLOTS + pad;
        let mut model = vec![0.0f64; n];
        for (i, &code) in init.iter().enumerate() {
            model[i] = tree_load(code);
        }
        let mut t = LoadTree::new();
        t.rebuild(n, model.iter().enumerate().map(|(i, &v)| (LinkId(i), v)));
        assert_tree_matches(&t, &model);
        for &(l, code) in &sets {
            model[l] = tree_load(code);
            t.set(LinkId(l), model[l]);
            assert_tree_matches(&t, &model);
        }
        // Draining every slot empties the tree.
        for l in 0..n {
            t.set(LinkId(l), 0.0);
        }
        prop_assert_eq!(t.peek_max(), None);
    }

    #[test]
    fn tree_rebuild_equals_incremental_sets(
        pad in 0usize..=9,
        entries in prop::collection::vec((0..SLOTS, 0u32..=7), 0..=40),
    ) {
        // Bulk rebuild and per-link sets on a fitted tree agree on every
        // slot and on the maximum (last write per link wins), also when
        // the tree is refitted from an earlier, larger state.
        let n = SLOTS + pad;
        let mut model = vec![0.0f64; n];
        for &(l, code) in &entries {
            model[l] = tree_load(code);
        }
        let mut by_rebuild = LoadTree::new();
        by_rebuild.rebuild(n, model.iter().enumerate().map(|(i, &v)| (LinkId(i), v)));
        let mut by_sets = LoadTree::new();
        by_sets.rebuild(n + 5, (0..n + 5).map(|i| (LinkId(i), 3.0)));
        by_sets.fit(n);
        for &(l, code) in &entries {
            by_sets.set(LinkId(l), tree_load(code));
        }
        assert_tree_matches(&by_rebuild, &model);
        assert_tree_matches(&by_sets, &model);
    }
}
