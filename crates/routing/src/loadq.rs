//! Shared incremental **max-load link index** for the improvement loops.
//!
//! PR, XYI and IG all repeatedly ask the same question of the link-load
//! map: *which loaded link comes next in decreasing-load order (ties towards
//! the smaller link id)?* The historical answer was [`select_max`] — an
//! `O(links)` selection scan per examined link, re-run from scratch after
//! every accepted modification, which PR 4's profiling showed to dominate
//! the heuristics' runtime (`O(links²)` per improvement pass, dwarfing the
//! reachability sweeps it was feeding).
//!
//! [`LoadQueue`] replaces the scan with an incrementally-maintained ordered
//! index over `LinkId → f64`:
//!
//! * **bulk rebuild** ([`LoadQueue::rebuild`]) seeds the index from a load
//!   map in one pass at the start of an improvement loop;
//! * **eager updates** ([`LoadQueue::set`]) re-key a single link in
//!   `O(log links)` — PR's per-removal load deltas;
//! * **lazy invalidation** ([`LoadQueue::mark_dirty`] +
//!   [`LoadQueue::refresh`]) batches re-keying for callers whose load
//!   mutations clamp or cancel (XYI's move application touches four links
//!   whose final values only the [`LoadMap`] knows);
//! * **k-th-max iteration** ([`Cursor`]) walks the index in exactly the
//!   [`select_max`] order, resuming strictly below the last yielded key so
//!   rejected links are never re-examined.
//!
//! The ordering contract is bit-exact: keys are `(load.to_bits(),
//! Reverse(link index))`, and the IEEE-754 bit patterns of strictly
//! positive floats sort like the floats themselves, so descending key order
//! is descending load with ties towards the smaller link id — precisely the
//! order `select_max` yields for `k = 0, 1, …`. The queue only ever holds
//! strictly positive loads, which `crates/routing/tests/loadq_prop.rs` pins
//! against the naive sort under arbitrary operation interleavings.
//!
//! XYI and IG resume a walk below a rejected link, which needs the ordered
//! set behind the [`Cursor`]. Path-Remover never rejects a link: its index
//! holds only links that host a removal, so it asks for nothing but the
//! maximum after each re-key. [`LoadTree`] serves exactly that — the same
//! key order on a flat array tournament tree, `O(log slots)` per re-key
//! with no allocation and an `O(1)` [`LoadTree::peek_max`].

use pamr_mesh::{LinkId, LoadMap};
use std::cmp::Reverse;
use std::collections::BTreeSet;

/// Ordering key of one queued link: `(load bits, Reverse(link index))`.
type Key = (u64, Reverse<usize>);

#[inline]
fn key(link: usize, load: f64) -> Key {
    (load.to_bits(), Reverse(link))
}

/// An incrementally-maintained max-load index over `LinkId → f64`.
///
/// Holds exactly the links whose tracked load is strictly positive. See the
/// [module docs](self) for the ordering contract and maintenance modes.
///
/// ```
/// use pamr_mesh::LinkId;
/// use pamr_routing::LoadQueue;
///
/// let mut q = LoadQueue::new();
/// q.rebuild(4, [(LinkId(0), 700.0), (LinkId(1), 1200.0), (LinkId(3), 700.0)]);
///
/// // Descending load, ties towards the smaller link id — bit-exactly the
/// // order the historical `select_max` scan yields for k = 0, 1, …
/// assert_eq!(q.peek_max(), Some((LinkId(1), 1200.0)));
/// assert_eq!(q.kth_max(1), Some((LinkId(0), 700.0)));
///
/// // Eager O(log n) re-key: link 1 drains to zero and leaves the index.
/// q.set(LinkId(1), 0.0);
/// let mut cursor = q.cursor();
/// assert_eq!(cursor.next(&q), Some((LinkId(0), 700.0)));
/// assert_eq!(cursor.next(&q), Some((LinkId(3), 700.0)));
/// assert_eq!(cursor.next(&q), None);
/// ```
#[derive(Debug, Default)]
pub struct LoadQueue {
    /// The ordered index; greatest key = most loaded link.
    set: BTreeSet<Key>,
    /// Per-link value currently keyed in `set` (`0.0` = absent). Lets
    /// callers re-key a link without knowing its previous load.
    shadow: Vec<f64>,
    /// Links whose shadow entry may be stale (lazy invalidation); resolved
    /// against the authoritative loads by [`LoadQueue::refresh`].
    dirty: Vec<usize>,
}

impl LoadQueue {
    /// A new, empty index. Size it with [`LoadQueue::fit`] or
    /// [`LoadQueue::rebuild`] before use.
    pub fn new() -> Self {
        LoadQueue::default()
    }

    /// Empties the index and resizes it to `n_slots` link slots, keeping
    /// allocations (scratch-buffer reuse).
    pub fn fit(&mut self, n_slots: usize) {
        self.set.clear();
        self.dirty.clear();
        self.shadow.clear();
        self.shadow.resize(n_slots, 0.0);
    }

    /// Empties the index in time proportional to its **occupancy**,
    /// zeroing only the keyed shadow entries. Same post-state as
    /// [`LoadQueue::fit`] at the current slot count, without its
    /// `O(n_slots)` shadow memset — the session's per-mutation repair-scope
    /// reset touches a band's worth of links on a mesh with hundreds of
    /// thousands of slots.
    pub fn drain_keyed(&mut self) {
        self.dirty.clear();
        while let Some((_, Reverse(slot))) = self.set.pop_first() {
            self.shadow[slot] = 0.0;
        }
    }

    /// Bulk rebuild: [`LoadQueue::fit`] to `n_slots`, then key every
    /// `(link, load)` of `entries` with a strictly positive load.
    pub fn rebuild<I>(&mut self, n_slots: usize, entries: I)
    where
        I: IntoIterator<Item = (LinkId, f64)>,
    {
        self.fit(n_slots);
        for (l, v) in entries {
            if v > 0.0 {
                self.set.insert(key(l.index(), v));
                self.shadow[l.index()] = v;
            }
        }
    }

    /// Number of indexed links.
    pub fn len(&self) -> usize {
        self.set.len()
    }

    /// True when no link is indexed.
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }

    /// The load currently keyed for `link` (`0.0` when absent). Reflects
    /// the last [`LoadQueue::set`]/[`LoadQueue::refresh`], not any pending
    /// [`LoadQueue::mark_dirty`].
    pub fn get(&self, link: LinkId) -> f64 {
        self.shadow[link.index()]
    }

    /// Eagerly re-keys `link` to load `v`: removes the stale key (if any)
    /// and inserts the new one when `v` is strictly positive. `O(log n)`.
    pub fn set(&mut self, link: LinkId, v: f64) {
        let slot = link.index();
        let old = self.shadow[slot];
        if old == v {
            return;
        }
        if old > 0.0 {
            self.set.remove(&key(slot, old));
        }
        if v > 0.0 {
            self.set.insert(key(slot, v));
        }
        self.shadow[slot] = v;
    }

    /// Lazy invalidation: records that `link`'s load may have changed
    /// without touching the index. The stale key stays in place — and
    /// iteration keeps reflecting the last refresh — until
    /// [`LoadQueue::refresh`] re-keys every marked link in one batch.
    /// Marking a link more than once is harmless.
    pub fn mark_dirty(&mut self, link: LinkId) {
        self.dirty.push(link.index());
    }

    /// Resolves every pending [`LoadQueue::mark_dirty`] against the
    /// authoritative `loads`, re-keying each marked link to its current
    /// value.
    pub fn refresh(&mut self, loads: &LoadMap) {
        self.refresh_with(|l| loads.get(l));
    }

    /// [`LoadQueue::refresh`] with an arbitrary load lookup.
    pub fn refresh_with(&mut self, mut load_of: impl FnMut(LinkId) -> f64) {
        while let Some(slot) = self.dirty.pop() {
            let v = load_of(LinkId(slot));
            self.set(LinkId(slot), v);
        }
    }

    /// The most loaded link (smallest link id on ties), if any.
    pub fn peek_max(&self) -> Option<(LinkId, f64)> {
        self.set
            .iter()
            .next_back()
            .map(|&(bits, Reverse(slot))| (LinkId(slot), f64::from_bits(bits)))
    }

    /// The `k`-th entry (0-based) of the descending [`select_max`] order:
    /// `kth_max(0)` is the maximum. `O(k log n)`; for a full walk use a
    /// [`Cursor`].
    pub fn kth_max(&self, k: usize) -> Option<(LinkId, f64)> {
        let mut cursor = Cursor::default();
        (0..k).try_for_each(|_| cursor.next(self).map(drop))?;
        cursor.next(self)
    }

    /// A descending cursor starting at the maximum.
    pub fn cursor(&self) -> Cursor {
        Cursor::default()
    }
}

/// A resumable descending iterator over a [`LoadQueue`].
///
/// Each [`Cursor::next`] yields the greatest key strictly below the last
/// yielded one, so consuming a cursor walks the exact [`select_max`] order
/// and a scan over rejected links resumes where it stopped. The cursor
/// holds no borrow; pass the queue to every call. If the queue is mutated
/// mid-walk the cursor stays valid: it simply continues below its last key,
/// which is why the improvement loops restart with a fresh cursor after
/// every accepted modification.
#[derive(Debug, Default, Clone, Copy)]
pub struct Cursor {
    last: Option<Key>,
}

impl Cursor {
    /// Restarts the walk from the maximum.
    pub fn reset(&mut self) {
        self.last = None;
    }

    /// The next link in descending `(load, Reverse(id))` order, or `None`
    /// when the walk is exhausted.
    pub fn next(&mut self, q: &LoadQueue) -> Option<(LinkId, f64)> {
        let k = match self.last {
            None => q.set.iter().next_back().copied(),
            Some(c) => q.set.range(..c).next_back().copied(),
        }?;
        self.last = Some(k);
        Some((LinkId(k.1 .0), f64::from_bits(k.0)))
    }
}

/// A flat array tournament tree over link slots: the max-load index for
/// callers that only re-key links and read the maximum.
///
/// It keys links exactly like [`LoadQueue`] — descending load, ties towards
/// the smaller link id, and only strictly positive loads count as present —
/// but stores one `u64` load pattern per slot plus `2 · slots` `u32` winner
/// nodes instead of an ordered set. Node `i` holds the winning slot of its
/// children `2i` and `2i + 1`, leaf `slots + s` holds slot `s`, and node 1
/// the overall winner. [`LoadTree::set`] replays the matches on one
/// leaf-to-root path, stopping early once a match keeps a winner whose load
/// did not change; nothing allocates after [`LoadTree::fit`].
///
/// ```
/// use pamr_mesh::LinkId;
/// use pamr_routing::LoadTree;
///
/// let mut t = LoadTree::new();
/// t.rebuild(5, [(LinkId(0), 700.0), (LinkId(1), 1200.0), (LinkId(3), 700.0)]);
/// assert_eq!(t.peek_max(), Some((LinkId(1), 1200.0)));
///
/// // A zero (or negative) load removes the link; ties go to the smaller id.
/// t.set(LinkId(1), 0.0);
/// assert_eq!(t.peek_max(), Some((LinkId(0), 700.0)));
/// t.set(LinkId(0), 0.0);
/// t.set(LinkId(3), 0.0);
/// assert_eq!(t.peek_max(), None);
/// ```
#[derive(Debug, Default, Clone)]
pub struct LoadTree {
    /// Per-slot load bit pattern; `0` (the pattern of `+0.0`) = absent.
    bits: Vec<u64>,
    /// Winner slot per node, `2 · slots` entries (node 0 unused).
    win: Vec<u32>,
}

impl LoadTree {
    /// A new, empty tree. Size it with [`LoadTree::fit`] or
    /// [`LoadTree::rebuild`] before use.
    pub fn new() -> Self {
        LoadTree::default()
    }

    /// Empties the tree and resizes it to `n_slots` link slots, keeping
    /// allocations. `O(n_slots)`.
    pub fn fit(&mut self, n_slots: usize) {
        self.rebuild(n_slots, std::iter::empty());
    }

    /// Bulk rebuild: [`LoadTree::fit`] to `n_slots`, then key every
    /// `(link, load)` of `entries` with a strictly positive load. Replays
    /// the matches once, bottom-up: `O(n_slots + entries)`.
    pub fn rebuild<I>(&mut self, n_slots: usize, entries: I)
    where
        I: IntoIterator<Item = (LinkId, f64)>,
    {
        self.bits.clear();
        self.bits.resize(n_slots, 0);
        for (l, v) in entries {
            self.bits[l.index()] = present(v);
        }
        self.win.clear();
        self.win.resize(n_slots, 0);
        // Leaves: slot ids, which index a mesh's link slots and so stay far
        // below `u32::MAX`.
        self.win.extend((0..n_slots).map(|s| s as u32));
        for i in (1..n_slots).rev() {
            self.win[i] = self.winner(self.win[2 * i], self.win[2 * i + 1]);
        }
    }

    /// The load currently keyed for `link` (`0.0` when absent).
    pub fn get(&self, link: LinkId) -> f64 {
        f64::from_bits(self.bits[link.index()])
    }

    /// Re-keys `link` to load `v`; `v ≤ 0` (or NaN) removes it.
    /// `O(log slots)`, no allocation.
    pub fn set(&mut self, link: LinkId, v: f64) {
        let slot = link.index();
        let b = present(v);
        if self.bits[slot] == b {
            return;
        }
        self.bits[slot] = b;
        let mut i = (self.bits.len() + slot) >> 1;
        while i > 0 {
            let w = self.winner(self.win[2 * i], self.win[2 * i + 1]);
            // The other matches on the path only see a changed load
            // through `slot`, so a kept winner other than `slot` ends the
            // replay.
            if w == self.win[i] && w as usize != slot {
                return;
            }
            self.win[i] = w;
            i >>= 1;
        }
    }

    /// The most loaded link (smallest link id on ties), if any. `O(1)`.
    pub fn peek_max(&self) -> Option<(LinkId, f64)> {
        let w = *self.win.get(1)? as usize;
        let b = self.bits[w];
        (b != 0).then(|| (LinkId(w), f64::from_bits(b)))
    }

    /// The slot whose key wins the match of slots `a` and `b`.
    #[inline]
    fn winner(&self, a: u32, b: u32) -> u32 {
        let (ka, kb) = (self.bits[a as usize], self.bits[b as usize]);
        if ka > kb || (ka == kb && a < b) {
            a
        } else {
            b
        }
    }
}

/// The tree's stored pattern for load `v`: its bits when strictly
/// positive, `0` (absent) otherwise — including `-0.0` and NaN.
#[inline]
fn present(v: f64) -> u64 {
    if v > 0.0 {
        v.to_bits()
    } else {
        0
    }
}

/// Selection-scan: moves the entry of `active[k..]` with the highest load
/// (ties broken towards the smallest link id) into `active[k]` and returns
/// it; `None` when `k` is past the end. Consuming `k = 0, 1, …` yields
/// exactly the fully-sorted order.
///
/// This is the naive `O(n)`-per-examined-link scan the [`LoadQueue`]
/// replaces. It survives as the ordering *specification*: the reference
/// oracles (`pr::reference`, `xyi::reference`) still select with it, and
/// the `loadq` property tests pin the queue's iteration order against it.
pub fn select_max(active: &mut [(LinkId, f64)], k: usize) -> Option<(LinkId, f64)> {
    if k >= active.len() {
        return None;
    }
    let mut best = k;
    for i in k + 1..active.len() {
        let (bl, bv) = active[best];
        let (il, iv) = active[i];
        if iv > bv || (iv == bv && il < bl) {
            best = i;
        }
    }
    active.swap(k, best);
    Some(active[k])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(i: usize) -> LinkId {
        LinkId(i)
    }

    /// Drains a fresh cursor into a vector.
    fn drain(q: &LoadQueue) -> Vec<(LinkId, f64)> {
        let mut cursor = q.cursor();
        let mut out = Vec::new();
        while let Some(e) = cursor.next(q) {
            out.push(e);
        }
        out
    }

    #[test]
    fn rebuild_yields_select_max_order() {
        let mut q = LoadQueue::new();
        let entries = vec![(mk(3), 1.0), (mk(1), 5.0), (mk(0), 5.0), (mk(2), 3.0)];
        q.rebuild(8, entries.clone());
        // Decreasing load, ties towards the smaller link id.
        assert_eq!(
            drain(&q),
            vec![(mk(0), 5.0), (mk(1), 5.0), (mk(2), 3.0), (mk(3), 1.0)]
        );
        // The same order as the naive selection scan.
        let mut active = entries;
        let mut k = 0;
        while let Some(e) = select_max(&mut active, k) {
            assert_eq!(q.kth_max(k), Some(e));
            k += 1;
        }
        assert_eq!(q.kth_max(k), None);
    }

    #[test]
    fn set_rekeys_and_zero_removes() {
        let mut q = LoadQueue::new();
        q.rebuild(4, vec![(mk(0), 2.0), (mk(1), 1.0)]);
        q.set(mk(1), 3.0);
        assert_eq!(q.peek_max(), Some((mk(1), 3.0)));
        assert_eq!(q.get(mk(1)), 3.0);
        q.set(mk(1), 0.0);
        assert_eq!(drain(&q), vec![(mk(0), 2.0)]);
        // Setting an untracked link to zero is a no-op.
        q.set(mk(3), 0.0);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn lazy_refresh_applies_marked_links_only() {
        let loads = [0.0, 7.0, 2.0, 0.5];
        let mut q = LoadQueue::new();
        q.rebuild(4, vec![(mk(1), 1.0), (mk(2), 2.0)]);
        q.mark_dirty(mk(1));
        q.mark_dirty(mk(3));
        q.mark_dirty(mk(1)); // duplicate marks are harmless
                             // Until the refresh, iteration reflects the stale keys.
        assert_eq!(q.peek_max(), Some((mk(2), 2.0)));
        q.refresh_with(|l| loads[l.index()]);
        assert_eq!(drain(&q), vec![(mk(1), 7.0), (mk(2), 2.0), (mk(3), 0.5)]);
    }

    #[test]
    fn cursor_resumes_strictly_below_last_key() {
        let mut q = LoadQueue::new();
        q.rebuild(8, (0..6).map(|i| (mk(i), (i + 1) as f64)));
        let mut cursor = q.cursor();
        assert_eq!(cursor.next(&q), Some((mk(5), 6.0)));
        assert_eq!(cursor.next(&q), Some((mk(4), 5.0)));
        // A mutation above the cursor does not disturb the resume point.
        q.set(mk(0), 100.0);
        assert_eq!(cursor.next(&q), Some((mk(3), 4.0)));
        cursor.reset();
        assert_eq!(cursor.next(&q), Some((mk(0), 100.0)));
    }

    #[test]
    fn drain_keyed_matches_fit_at_same_size() {
        let mut q = LoadQueue::new();
        q.rebuild(8, vec![(mk(0), 1.0), (mk(5), 4.0)]);
        q.mark_dirty(mk(5));
        q.drain_keyed();
        assert!(q.is_empty());
        assert_eq!(q.get(mk(0)), 0.0);
        assert_eq!(q.get(mk(5)), 0.0);
        q.refresh_with(|_| unreachable!("drain_keyed drops pending dirty marks"));
        // The queue stays sized: slot 7 is still addressable.
        q.set(mk(7), 2.0);
        assert_eq!(q.peek_max(), Some((mk(7), 2.0)));
    }

    #[test]
    fn fit_clears_everything() {
        let mut q = LoadQueue::new();
        q.rebuild(4, vec![(mk(0), 1.0)]);
        q.mark_dirty(mk(0));
        q.fit(2);
        assert!(q.is_empty());
        assert_eq!(q.get(mk(0)), 0.0);
        q.refresh_with(|_| unreachable!("fit drops pending dirty marks"));
    }
}
