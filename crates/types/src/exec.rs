//! A small, deterministic, work-stealing-free scoped worker pool.
//!
//! The SysScale evaluation is an embarrassingly parallel matrix of
//! independent simulation cells. This module provides the minimal execution
//! primitive that matrix needs — and deliberately nothing more:
//!
//! * **static sharding** — the item→worker assignment is a pure function of
//!   `(item index, worker count, shard strategy)`. There is no work stealing
//!   and no shared queue, so every run of the same input is scheduled
//!   identically. Two strategies exist ([`Shard`]): plain round-robin
//!   (worker `w` of `n` processes items `w, w + n, w + 2n, …`) and keyed
//!   sharding (items sharing a key — e.g. simulation cells on the same
//!   platform — are grouped onto as few workers as possible while keeping
//!   every worker busy; see [`Shard::ByKey`]);
//! * **index-driven streaming folds** — [`fold_indices_with_workers`] hands
//!   each worker bare indices, always in ascending order, instead of slice
//!   elements, so callers can pull items from a lazy per-worker generator
//!   and never materialize the full input. Each worker folds its index
//!   stream into a per-worker accumulator, and the accumulators are merged
//!   deterministically in worker order, so callers can aggregate
//!   arbitrarily large batches without materializing one result per item;
//! * **scoped threads** — built on [`std::thread::scope`], so borrowed items
//!   and per-worker contexts need no `'static` lifetimes and no reference
//!   counting;
//! * **resumable folds** — [`Shard::worker_lists`],
//!   [`cost_quantile_chunks`] and [`IncrementalFold`] run the same fold in
//!   suspendable pieces, bit-identical to the one-shot fold.
//!
//! Determinism caveat: the pool guarantees deterministic *scheduling* and
//! *merge order*. Bit-identical results additionally require that the
//! folded function itself is a pure function of `(index, worker context)`
//! and that per-worker contexts are interchangeable (e.g. caches only).
//!
//! ## Example
//!
//! ```
//! use sysscale_types::exec;
//!
//! // Square every item into a per-index slot: the result is the same at
//! // every worker count and under either strategy.
//! let items = [1u64, 2, 3, 4, 5];
//! let mut contexts = vec![(); 2];
//! let squares = exec::fold_indices_with_workers(
//!     &mut contexts,
//!     items.len(),
//!     exec::Shard::RoundRobin,
//!     || vec![0u64; items.len()],
//!     |(), slots: &mut Vec<u64>, i| slots[i] = items[i] * items[i],
//!     |into, from| into.iter_mut().zip(from).for_each(|(a, b)| *a += b),
//! );
//! assert_eq!(squares, vec![1, 4, 9, 16, 25]);
//!
//! // Per-worker mutable contexts (one counter per worker):
//! let mut visits = vec![0usize; 2];
//! let sum = exec::fold_indices_with_workers(
//!     &mut visits,
//!     items.len(),
//!     exec::Shard::RoundRobin,
//!     || 0u64,
//!     |seen, acc, i| {
//!         *seen += 1;
//!         *acc += items[i];
//!     },
//!     |into, from| *into += from,
//! );
//! assert_eq!(sum, 15);
//! assert_eq!(visits, vec![3, 2]);
//! ```

use std::num::NonZeroUsize;

/// Environment variable overriding [`default_threads`].
pub const THREADS_ENV: &str = "SYSSCALE_THREADS";

/// Environment variable overriding [`default_procs`] (the worker *process*
/// count the distributed executor spawns, as opposed to the in-process
/// thread count governed by [`THREADS_ENV`]).
pub const PROCS_ENV: &str = "SYSSCALE_PROCS";

/// Upper bound [`default_threads`] / [`default_procs`] apply to the
/// *detected* parallelism (an explicit CLI or environment value may exceed
/// it).
pub const MAX_AUTO_THREADS: usize = 16;

/// The single worker-count resolution rule every layer shares, with the
/// documented precedence **CLI argument > environment variable > detected
/// cores**:
///
/// 1. `cli` — an explicit caller-provided count (e.g. a `--threads`/`--procs`
///    flag). Used verbatim when positive; `Some(0)` is treated like `None`
///    so callers can pass a raw parsed flag through without special-casing.
/// 2. `env_var` — the named environment variable (usually [`THREADS_ENV`]
///    or [`PROCS_ENV`]) if set to a positive integer.
/// 3. [`std::thread::available_parallelism`] capped at [`MAX_AUTO_THREADS`]
///    (one simulation cell saturates one core; beyond the physical core
///    count extra workers only cost memory).
///
/// Explicit values (CLI or env) are deliberately *not* capped: pinning more
/// workers than cores is a legitimate oversubscription experiment.
///
/// **Malformed environment values are diagnosed, not swallowed**: a set but
/// unusable value (`SYSSCALE_THREADS=4x`, `=0`, `=-2`) prints one warning
/// per distinct `(variable, value)` pair to stderr and then falls back to
/// the detected core count — the documented warn-and-fall-back choice, so a
/// typo'd pin degrades loudly instead of silently running at the wrong
/// width. A value that is empty or whitespace-only is treated as unset (the
/// conventional `VAR=` spelling of "no override") and draws no warning.
#[must_use]
pub fn resolve_parallelism(cli: Option<usize>, env_var: &str) -> usize {
    let env_value = std::env::var(env_var).ok();
    let (resolved, rejected) = resolve_from(cli, env_value.as_deref(), detected_parallelism());
    if let Some(reason) = rejected {
        warn_env_once(env_var, env_value.as_deref().unwrap_or(""), reason);
    }
    resolved
}

/// The pure core of [`resolve_parallelism`], separated so the precedence
/// rule is testable without mutating process-global environment state.
/// Returns the resolved count plus the reason the environment value was
/// rejected, when it was set to something other than a positive integer or
/// pure whitespace.
fn resolve_from(
    cli: Option<usize>,
    env_value: Option<&str>,
    detected: usize,
) -> (usize, Option<&'static str>) {
    if let Some(n) = cli {
        if n >= 1 {
            return (n, None);
        }
    }
    if let Some(value) = env_value {
        let trimmed = value.trim();
        if !trimmed.is_empty() {
            match trimmed.parse::<usize>() {
                Ok(0) => return (detected.max(1), Some("must be at least 1")),
                Ok(n) => return (n, None),
                Err(_) => return (detected.max(1), Some("not a positive integer")),
            }
        }
        // Empty / whitespace-only: the conventional "unset" spelling.
    }
    (detected.max(1), None)
}

/// Prints one stderr warning per distinct `(variable, value)` pair — a
/// malformed pin is worth exactly one line, not one per batch the process
/// executes.
fn warn_env_once(var: &str, value: &str, reason: &str) {
    use std::sync::Mutex;
    static WARNED: Mutex<Vec<(String, String)>> = Mutex::new(Vec::new());
    let mut warned = WARNED
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if warned.iter().any(|(v, val)| v == var && val == value) {
        return;
    }
    warned.push((var.to_string(), value.to_string()));
    eprintln!("warning: ignoring {var}={value:?} ({reason}); falling back to detected parallelism");
}

/// Detected hardware parallelism, capped at [`MAX_AUTO_THREADS`].
fn detected_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
        .min(MAX_AUTO_THREADS)
}

/// The worker *thread* count batch executors use when the caller does not
/// pin one: [`resolve_parallelism`] over [`THREADS_ENV`] with no CLI value.
#[must_use]
pub fn default_threads() -> usize {
    resolve_parallelism(None, THREADS_ENV)
}

/// The worker *process* count the distributed executor uses when the caller
/// does not pin one: [`resolve_parallelism`] over [`PROCS_ENV`] with no CLI
/// value.
#[must_use]
pub fn default_procs() -> usize {
    resolve_parallelism(None, PROCS_ENV)
}

/// How items are assigned to workers.
///
/// Both strategies are static: the assignment is a pure function of the item
/// index, the worker count, and (for keyed sharding) the caller-provided key
/// slice — never of timing. Changing the strategy changes *which worker*
/// processes an item, not the merge order, so any fold whose `fold`/`merge`
/// pair is insensitive to the partition (see [`fold_indices_with_workers`])
/// produces identical output under either strategy.
#[derive(Debug, Clone, Copy)]
pub enum Shard<'k> {
    /// Item `i` runs on worker `i % workers`. Balances load evenly across
    /// workers regardless of item content.
    RoundRobin,
    /// Items are grouped by key, with the key *values* irrelevant beyond
    /// equality and order: distinct keys are dense-ranked by ascending key
    /// value (`K` distinct keys), so raw hash values can never collide two
    /// groups onto one worker while another sits idle, and the
    /// group→worker mapping is a pure function of the key *multiset* — the
    /// order keys first appear in (e.g. the insertion order of sweep
    /// members) cannot change which worker owns a group.
    ///
    /// * `K ≥ workers` — group `g` runs entirely on worker `g % workers`:
    ///   items sharing a key always land on the same worker, so a
    ///   per-worker cache keyed on the same property (e.g. a simulator per
    ///   platform configuration) is built once per key instead of once per
    ///   `(worker, key)` pair, and the groups spread evenly.
    /// * `K < workers` — the workers are partitioned into `K` contiguous
    ///   ranges and each key's items split into a balanced contiguous
    ///   partition of its range (block sizes within one of each other, one
    ///   block per worker): every worker stays busy whenever its key has at
    ///   least as many items as its range is wide (a single-key batch
    ///   degrades to an even contiguous partition, not to one serialized
    ///   worker) while each key's items still touch the fewest workers
    ///   possible — and *consecutive* items of a key stay on one worker
    ///   except at the ≤ `workers − 1` block boundaries, so fold consumers
    ///   that pair up adjacent cells (e.g. a calibration high/low pair)
    ///   hold O(workers) records in flight, not O(items).
    ByKey(&'k [u64]),
}

/// Dense-ranks `keys` by ascending key value: returns one rank per item and
/// the number of distinct keys. Pure function of the key multiset — the
/// order in which keys first appear is irrelevant.
fn dense_ranks(keys: &[u64]) -> (Vec<usize>, usize) {
    let mut sorted: Vec<u64> = keys.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    let ranks = keys
        .iter()
        .map(|key| sorted.binary_search(key).expect("key present"))
        .collect();
    (ranks, sorted.len())
}

/// Spreads group-labelled items over `workers`: with at least as many
/// groups as workers, group `g` runs entirely on worker `g % workers`;
/// with fewer groups, the workers are partitioned into contiguous ranges
/// (one per group) and each group's occurrences split into a *balanced
/// contiguous partition* over its range (occurrence `o` of `count` items on
/// `width` workers lands on slot `o·width / count`) — so consecutive items
/// of a group stay on one worker except at the `width − 1` boundaries,
/// block sizes differ by at most one, and every worker of the range
/// receives items whenever the group has at least `width` of them.
fn spread_groups(group_of: Vec<usize>, groups: usize, workers: usize) -> Vec<usize> {
    let groups = groups.max(1);
    if groups >= workers {
        return group_of.into_iter().map(|g| g % workers).collect();
    }
    let mut counts = vec![0usize; groups];
    for &g in &group_of {
        counts[g] += 1;
    }
    let mut occurrence = vec![0usize; groups];
    group_of
        .into_iter()
        .map(|g| {
            let start = g * workers / groups;
            let width = (g + 1) * workers / groups - start;
            let slot = occurrence[g] * width / counts[g];
            occurrence[g] += 1;
            start + slot
        })
        .collect()
}

impl Shard<'_> {
    /// The key slice of a keyed strategy (`None` for round-robin).
    fn keys(&self) -> Option<&[u64]> {
        match self {
            Shard::RoundRobin => None,
            Shard::ByKey(keys) => Some(keys),
        }
    }

    /// Validates that a keyed strategy's key slice covers `len` items.
    fn validate(&self, len: usize) {
        if let Some(keys) = self.keys() {
            assert!(
                keys.len() >= len,
                "shard keys ({}) shorter than the input ({len})",
                keys.len()
            );
        }
    }

    /// Computes the worker index for every item, as a pure function of
    /// `(len, workers)` and (for keyed sharding) the key slice — and of the
    /// key *multiset* only: permuting the items (and their keys) permutes
    /// the assignment identically but never changes which workers own a
    /// key.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero, or (for keyed sharding) if the key
    /// slice is shorter than `len`.
    #[must_use]
    pub fn assignments(&self, len: usize, workers: usize) -> Vec<usize> {
        assert!(workers > 0, "shard requires at least one worker");
        self.validate(len);
        match self {
            Shard::RoundRobin => (0..len).map(|i| i % workers).collect(),
            Shard::ByKey(keys) => {
                let (ranks, distinct) = dense_ranks(&keys[..len]);
                spread_groups(ranks, distinct, workers)
            }
        }
    }

    /// Materializes each worker's **ascending index list** for this shard —
    /// exactly the per-worker visit order [`fold_indices_with_workers`]
    /// executes, as one `Vec` per worker. The concatenation of the lists is
    /// a permutation of `0..len`, and each list is strictly ascending.
    ///
    /// This is the planning half of a resumable fold (see
    /// [`IncrementalFold`]): an executor that wants to run a batch in
    /// suspendable pieces cuts these lists into chunks (e.g. with
    /// [`cost_quantile_chunks`]) and folds each chunk into the owning
    /// slot's accumulator, in list order — reproducing the one-shot fold's
    /// partition and visit order bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero, or (for keyed sharding) if the key
    /// slice is shorter than `len`.
    #[must_use]
    pub fn worker_lists(&self, len: usize, workers: usize) -> Vec<Vec<usize>> {
        assert!(workers > 0, "shard requires at least one worker");
        let mut lists: Vec<Vec<usize>> = vec![Vec::new(); workers];
        for (i, w) in self.assignments(len, workers).into_iter().enumerate() {
            lists[w].push(i);
        }
        lists
    }
}

/// Cuts an ascending item list into up to `chunks` contiguous pieces whose
/// boundaries fall on **cost-prefix quantiles**: piece `c` ends at the
/// first item whose cumulative cost reaches `(c+1)/chunks` of the list's
/// total, so an expensive item no longer drags a count-equal share of cheap
/// neighbours into its piece. Every piece keeps at least one item, pieces
/// stay contiguous and in order, and the plan is a pure function of
/// `(items, costs, chunks)`. Zero costs count as one.
///
/// This is the lease-sizing primitive shared by the distributed
/// dispatcher (cutting a worker slot's shard into replayable leases) and
/// the sweep service's multiplexing scheduler (cutting every submission's
/// slots into interleavable leases).
#[must_use]
pub fn cost_quantile_chunks(
    items: &[usize],
    cost_of: impl Fn(usize) -> u64,
    chunks: usize,
) -> Vec<Vec<usize>> {
    if items.is_empty() {
        return Vec::new();
    }
    let chunks = chunks.clamp(1, items.len());
    let cost = |item: usize| u128::from(cost_of(item).max(1));
    let total: u128 = items.iter().map(|&item| cost(item)).sum();
    let mut plan: Vec<Vec<usize>> = Vec::with_capacity(chunks);
    let mut current = Vec::new();
    let mut prefix: u128 = 0;
    for (i, &item) in items.iter().enumerate() {
        current.push(item);
        prefix += cost(item);
        let built = plan.len() + 1; // chunks complete once `current` closes
        let items_left = items.len() - (i + 1);
        let chunks_left = chunks - built;
        // Close the chunk at its cost quantile — or when exactly enough
        // items remain to keep every later chunk non-empty.
        let reached = prefix * chunks as u128 >= built as u128 * total;
        if built < chunks && (items_left == chunks_left || (reached && items_left >= chunks_left)) {
            plan.push(std::mem::take(&mut current));
        }
    }
    plan.push(current);
    plan
}

/// A **resumable** spelling of [`fold_indices_with_workers`]: the
/// per-worker-slot accumulators live here instead of on worker stacks, so
/// an executor can run a slot's index stream in pieces — checking a slot's
/// accumulator out, folding a chunk into it, restoring it, and doing
/// something else in between — and still finish with an accumulator
/// bit-identical to the one-shot fold's.
///
/// The contract the one-shot core enforces by construction is enforced
/// here by watermarks: each slot's chunks must arrive in ascending index
/// order ([`IncrementalFold::checkout`] panics on a regression), at most
/// one chunk per slot is in flight at a time (a second `checkout` while
/// one is out panics), and [`IncrementalFold::finish`] merges the slot
/// accumulators **in slot order** — the same merge order
/// [`fold_indices_with_workers`] uses for its workers.
///
/// What this type deliberately does *not* do is schedule: which slot runs
/// next, and on which OS thread, is the caller's policy. Any interleaving
/// that respects the per-slot ordering yields the same final accumulator,
/// which is what lets the sweep service multiplex many submissions over
/// one worker pool without perturbing any submission's result.
#[derive(Debug)]
pub struct IncrementalFold<A> {
    slots: Vec<FoldSlot<A>>,
}

#[derive(Debug)]
struct FoldSlot<A> {
    /// `None` while a chunk is checked out.
    acc: Option<A>,
    /// Lowest index the slot's next chunk may start at.
    watermark: usize,
}

impl<A> IncrementalFold<A> {
    /// One accumulator per worker slot, built by `make_acc` (fresh and
    /// empty, per the fold contract).
    ///
    /// # Panics
    ///
    /// Panics if `slots` is zero.
    pub fn new(slots: usize, mut make_acc: impl FnMut() -> A) -> Self {
        assert!(slots > 0, "an incremental fold needs at least one slot");
        Self {
            slots: (0..slots)
                .map(|_| FoldSlot {
                    acc: Some(make_acc()),
                    watermark: 0,
                })
                .collect(),
        }
    }

    /// Number of worker slots.
    #[must_use]
    pub fn slots(&self) -> usize {
        self.slots.len()
    }

    /// Checks slot `slot`'s accumulator out for a chunk starting at
    /// `first_index`.
    ///
    /// # Panics
    ///
    /// Panics if the slot's accumulator is already checked out, or if
    /// `first_index` is below the slot's watermark (the chunk would revisit
    /// or reorder indices the slot already folded).
    pub fn checkout(&mut self, slot: usize, first_index: usize) -> A {
        let state = &mut self.slots[slot];
        assert!(
            first_index >= state.watermark,
            "slot {slot} chunk starts at {first_index}, below watermark {}",
            state.watermark
        );
        state
            .acc
            .take()
            .unwrap_or_else(|| panic!("slot {slot} accumulator already checked out"))
    }

    /// Restores slot `slot`'s accumulator after folding a chunk whose
    /// indices were all below `next_index` (typically `last + 1`).
    ///
    /// # Panics
    ///
    /// Panics if the slot's accumulator is not checked out.
    pub fn restore(&mut self, slot: usize, acc: A, next_index: usize) {
        let state = &mut self.slots[slot];
        assert!(
            state.acc.is_none(),
            "slot {slot} restored without a checkout"
        );
        state.acc = Some(acc);
        state.watermark = state.watermark.max(next_index);
    }

    /// Whether every slot's accumulator is currently restored (no chunk in
    /// flight).
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.slots.iter().all(|s| s.acc.is_some())
    }

    /// Merges the slot accumulators in slot order — `merge(&mut acc₀,
    /// acc₁)`, then `merge(&mut acc₀, acc₂)`, … — exactly the worker-order
    /// merge of the one-shot fold.
    ///
    /// # Panics
    ///
    /// Panics if any slot's accumulator is still checked out.
    pub fn finish(self, mut merge: impl FnMut(&mut A, A)) -> A {
        let mut accs = self.slots.into_iter().enumerate().map(|(slot, s)| {
            s.acc
                .unwrap_or_else(|| panic!("slot {slot} still checked out at finish"))
        });
        let mut merged = accs.next().expect("at least one slot");
        for acc in accs {
            merge(&mut merged, acc);
        }
        merged
    }
}

/// The fold-capable core of the pool: runs `fold(ctx, acc, i)` for every
/// `i ∈ 0..len`, with item `i` assigned to a worker by `shard` and each
/// worker folding its indices in **ascending order** into its own
/// accumulator (built by `make_acc`). The per-worker accumulators are then
/// merged **deterministically in worker order** — `merge(&mut acc₀, acc₁)`,
/// then `merge(&mut acc₀, acc₂)`, … — and the combined accumulator is
/// returned.
///
/// This is what lets arbitrarily large batches aggregate on the fly: the
/// pool keeps only `contexts.len()` accumulators alive, so result memory is
/// O(workers) no matter how large `len` grows. And because workers receive
/// bare indices, `fold` is free to produce the item for index `i` however
/// it likes — typically by advancing a lazy per-worker generator kept
/// inside the worker context `C`, which the ascending-order guarantee makes
/// a single forward pass.
///
/// ## Determinism
///
/// The schedule (which worker folds which indices, in which order) and the
/// merge order are pure functions of `(len, contexts.len(), shard)`. For
/// the *final accumulator* to be identical at every worker count, the
/// caller's `fold`/`merge` pair must additionally be insensitive to how the
/// index stream is partitioned — e.g. because the accumulator keeps
/// per-index slots, or because the folded operation is associative and
/// commutative in exact arithmetic. Plain floating-point accumulation is
/// *not* (addition order changes the bits); fold per-index values and
/// reduce them in a fixed order instead.
///
/// # Panics
///
/// Panics if `contexts` is empty, if a keyed [`Shard`]'s key slice is
/// shorter than `len`, or propagates a panic from `fold`.
pub fn fold_indices_with_workers<C, A, FInit, F, M>(
    contexts: &mut [C],
    len: usize,
    shard: Shard<'_>,
    make_acc: FInit,
    fold: F,
    mut merge: M,
) -> A
where
    C: Send,
    A: Send,
    FInit: Fn() -> A + Sync,
    F: Fn(&mut C, &mut A, usize) + Sync,
    M: FnMut(&mut A, A),
{
    assert!(!contexts.is_empty(), "exec requires at least one worker");
    if contexts.len() == 1 || len <= 1 {
        // Validate the keys on the inline path (without computing the full
        // assignment) so misuse surfaces identically at every worker count.
        shard.validate(len);
        let ctx = &mut contexts[0];
        let mut acc = make_acc();
        for i in 0..len {
            fold(ctx, &mut acc, i);
        }
        return acc;
    }
    let threads = contexts.len();
    // Round-robin needs no materialized schedule — worker `w` walks the
    // stepped range `w, w + threads, …` — so a round-robin fold's memory
    // really is O(workers). For keyed sharding one O(len) pass builds
    // each worker's index list; workers then walk their own (ascending)
    // list instead of rescanning the whole range.
    let mut shards: Vec<Option<Vec<usize>>> = if shard.keys().is_none() {
        vec![None; threads]
    } else {
        shard
            .worker_lists(len, threads)
            .into_iter()
            .map(Some)
            .collect()
    };
    let accs = std::thread::scope(|scope| {
        let fold = &fold;
        let make_acc = &make_acc;
        let handles: Vec<_> = contexts
            .iter_mut()
            .zip(shards.drain(..))
            .enumerate()
            .map(|(w, (ctx, indices))| {
                scope.spawn(move || {
                    let mut acc = make_acc();
                    match indices {
                        None => {
                            for i in (w..len).step_by(threads) {
                                fold(ctx, &mut acc, i);
                            }
                        }
                        Some(indices) => {
                            for i in indices {
                                fold(ctx, &mut acc, i);
                            }
                        }
                    }
                    acc
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("exec worker panicked"))
            .collect::<Vec<_>>()
    });
    let mut accs = accs.into_iter();
    let mut merged = accs.next().expect("at least one worker");
    for acc in accs {
        merge(&mut merged, acc);
    }
    merged
}

/// The worker count actually used for an input: at least 1, never more than
/// the number of items.
#[must_use]
pub fn effective_workers(threads: usize, items: usize) -> usize {
    threads.max(1).min(items.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyed_sharding_groups_items_by_key_with_identical_output() {
        // 24 items over 2 "platforms" (keys 10 and 11), laid out in two
        // contiguous halves — the layout where round-robin spreads every
        // platform across every worker.
        let items: Vec<usize> = (0..24).collect();
        let keys: Vec<u64> = (0..24).map(|i| if i < 12 { 10 } else { 11 }).collect();
        let expected: Vec<usize> = items.iter().map(|x| x + 100).collect();

        for workers in [1, 2, 3, 8] {
            let mut seen: Vec<Vec<u64>> = vec![Vec::new(); workers];
            let got = fold_indices_with_workers(
                &mut seen,
                items.len(),
                Shard::ByKey(&keys),
                || vec![0usize; items.len()],
                |b, slots: &mut Vec<usize>, i| {
                    b.push(keys[i]);
                    slots[i] = items[i] + 100;
                },
                |into, from| into.iter_mut().zip(from).for_each(|(a, b)| *a += b),
            );
            assert_eq!(got, expected, "workers={workers}");
            let owners = |key: u64| -> Vec<usize> {
                seen.iter()
                    .enumerate()
                    .filter(|(_, bucket)| bucket.contains(&key))
                    .map(|(w, _)| w)
                    .collect()
            };
            let (a, b) = (owners(10), owners(11));
            if workers >= 2 {
                // With two keys and at least two workers the keys' worker
                // sets are disjoint (locality) and every worker is busy
                // (no idle workers from raw-key collisions).
                assert!(a.iter().all(|w| !b.contains(w)), "{a:?} vs {b:?}");
                assert_eq!(a.len() + b.len(), workers, "workers={workers}");
            }
            if workers == 2 {
                // As many keys as workers: whole key groups, one per worker.
                assert_eq!((a.len(), b.len()), (1, 1));
            }
        }
    }

    #[test]
    fn keyed_sharding_uses_every_worker_for_a_single_key() {
        // One platform, many workers: the batch must spread over every
        // worker (in contiguous, equal blocks) instead of serializing on
        // one worker.
        let keys = vec![42u64; 12];
        let assignment = Shard::ByKey(&keys).assignments(12, 4);
        assert_eq!(assignment, vec![0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3]);
    }

    #[test]
    fn keyed_sharding_is_insensitive_to_raw_key_values() {
        // Adversarial keys that collide modulo the worker count: dense
        // ranking still spreads the four groups over all four workers.
        let keys: Vec<u64> = (0..16).map(|i| (i as u64 / 4) * 8).collect();
        let assignment = Shard::ByKey(&keys).assignments(16, 4);
        let mut used: Vec<usize> = assignment.clone();
        used.sort_unstable();
        used.dedup();
        assert_eq!(used, vec![0, 1, 2, 3], "{assignment:?}");
        // Each group of four identical keys stays on one worker.
        for group in assignment.chunks(4) {
            assert!(group.windows(2).all(|w| w[0] == w[1]), "{assignment:?}");
        }
    }

    #[test]
    fn index_driven_mapping_visits_each_worker_shard_in_ascending_order() {
        let keys: Vec<u64> = (0..20).map(|i| [3, 1, 2][i % 3]).collect();
        for shard in [Shard::RoundRobin, Shard::ByKey(&keys)] {
            let mut orders: Vec<Vec<usize>> = vec![Vec::new(); 3];
            let visited = fold_indices_with_workers(
                &mut orders,
                20,
                shard,
                || 0usize,
                |bucket, acc, i| {
                    bucket.push(i);
                    *acc += 1;
                },
                |into, from| *into += from,
            );
            assert_eq!(visited, 20, "{shard:?}");
            for bucket in &orders {
                assert!(bucket.windows(2).all(|w| w[0] < w[1]), "{bucket:?}");
            }
        }
    }

    #[test]
    fn shard_assignments_are_a_pure_function_of_keys_and_workers() {
        let keys = [7u64, 8, 9, 7];
        assert_eq!(Shard::RoundRobin.assignments(5, 3), vec![0, 1, 2, 0, 1]);
        // Dense ranks: 7 -> 0, 8 -> 1, 9 -> 2; three keys on three workers.
        assert_eq!(Shard::ByKey(&keys).assignments(4, 3), vec![0, 1, 2, 0]);
        // Single worker: everything lands on worker 0 under any strategy.
        assert_eq!(Shard::ByKey(&keys).assignments(4, 1), vec![0; 4]);
        // Two keys, five workers: contiguous worker ranges [0, 2) and
        // [2, 5), each key's occurrences split into contiguous blocks (key
        // 5: four occurrences, block 2; key 6: three occurrences, block 1).
        let two = [5u64, 5, 5, 6, 6, 6, 5];
        assert_eq!(
            Shard::ByKey(&two).assignments(7, 5),
            vec![0, 0, 1, 2, 3, 4, 1]
        );
    }

    #[test]
    #[should_panic(expected = "shard keys")]
    fn short_key_slices_are_rejected() {
        let keys = [1u64];
        let mut ctx = [(), ()];
        fold_indices_with_workers(
            &mut ctx,
            5,
            Shard::ByKey(&keys),
            || (),
            |_, _, _| {},
            |_, _| {},
        );
    }

    /// The set of workers each distinct key's items land on.
    fn owners_by_key(keys: &[u64], assignment: &[usize]) -> Vec<(u64, Vec<usize>)> {
        let mut distinct: Vec<u64> = keys.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        distinct
            .into_iter()
            .map(|key| {
                let mut workers: Vec<usize> = keys
                    .iter()
                    .zip(assignment)
                    .filter(|(k, _)| **k == key)
                    .map(|(_, w)| *w)
                    .collect();
                workers.sort_unstable();
                workers.dedup();
                (key, workers)
            })
            .collect()
    }

    #[test]
    fn keyed_ranking_is_a_pure_function_of_the_key_multiset() {
        // Reversing (or otherwise permuting) the items must not change
        // which worker owns a key: ranking is by key value, not by first
        // appearance. A first-appearance ranking fails this immediately.
        let keys: Vec<u64> = (0..24).map(|i| 100 + (i as u64 / 6)).collect();
        let reversed: Vec<u64> = keys.iter().rev().copied().collect();
        for workers in [2, 3, 4, 8] {
            let forward = owners_by_key(&keys, &Shard::ByKey(&keys).assignments(24, workers));
            let backward =
                owners_by_key(&reversed, &Shard::ByKey(&reversed).assignments(24, workers));
            assert_eq!(forward, backward, "workers={workers}");
        }
    }

    #[test]
    fn keyed_sharding_keeps_every_worker_busy_when_items_cover_the_range() {
        // Regression: ceil-sized blocks once left workers idle whenever a
        // key's count did not divide its worker range (9 items on 8 workers
        // used only 5 of them). The balanced partition must hand every
        // worker of the range at least one item when count >= width, with
        // block sizes within one of each other.
        for (len, workers) in [(9usize, 8usize), (11, 8), (13, 5), (24, 7), (8, 8)] {
            let keys = vec![77u64; len];
            let assignment = Shard::ByKey(&keys).assignments(len, workers);
            let mut loads = vec![0usize; workers];
            for &w in &assignment {
                loads[w] += 1;
            }
            assert!(
                loads.iter().all(|&l| l > 0),
                "idles workers for {len} items on {workers}: {loads:?}"
            );
            let (min, max) = (loads.iter().min().unwrap(), loads.iter().max().unwrap());
            assert!(max - min <= 1, "unbalanced: {loads:?}");
        }
    }

    #[test]
    fn fold_merges_worker_accumulators_in_worker_order() {
        // Accumulate the visited indices: the merged list must be the
        // concatenation of the worker shards, each ascending, in worker
        // order — the documented merge contract.
        let mut ctxs = vec![(); 3];
        let folded = fold_indices_with_workers(
            &mut ctxs,
            10,
            Shard::RoundRobin,
            Vec::new,
            |_, acc: &mut Vec<usize>, i| acc.push(i),
            |into, from| into.extend(from),
        );
        assert_eq!(folded, vec![0, 3, 6, 9, 1, 4, 7, 2, 5, 8]);
    }

    #[test]
    fn fold_with_per_index_slots_is_worker_count_invariant() {
        // A fold whose accumulator keeps per-index slots (the pattern the
        // scenario-layer consumers use) produces bit-identical output at
        // every worker count, under every strategy.
        let len = 37usize;
        let keys: Vec<u64> = (0..len).map(|i| (i as u64) % 5).collect();
        let expected: Vec<u64> = (0..len as u64).map(|i| i * i).collect();
        for workers in [1, 2, 3, 8] {
            for shard in [Shard::RoundRobin, Shard::ByKey(&keys)] {
                let mut ctxs = vec![(); workers];
                let folded = fold_indices_with_workers(
                    &mut ctxs,
                    len,
                    shard,
                    || vec![0u64; len],
                    |_, slots: &mut Vec<u64>, i| slots[i] = (i as u64) * (i as u64),
                    |into, from| {
                        for (slot, value) in into.iter_mut().zip(from) {
                            *slot += value;
                        }
                    },
                );
                assert_eq!(folded, expected, "workers={workers} {shard:?}");
            }
        }
    }

    #[test]
    fn fold_runs_inline_with_one_worker() {
        let mut ctxs = vec![0u64];
        let sum = fold_indices_with_workers(
            &mut ctxs,
            5,
            Shard::RoundRobin,
            || 0u64,
            |ctx, acc, i| {
                *ctx += 1;
                *acc += i as u64;
            },
            |_, _| panic!("no merge with one worker"),
        );
        assert_eq!(sum, 10);
        assert_eq!(ctxs[0], 5, "inline path visits every index");
    }

    #[test]
    fn effective_workers_clamps_both_ends() {
        assert_eq!(effective_workers(0, 10), 1);
        assert_eq!(effective_workers(8, 3), 3);
        assert_eq!(effective_workers(4, 0), 1);
        assert_eq!(effective_workers(2, 100), 2);
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
        assert!(default_procs() >= 1);
    }

    #[test]
    fn resolve_parallelism_prefers_cli_then_env_then_detected() {
        // CLI beats env beats detected.
        assert_eq!(resolve_from(Some(3), Some("7"), 16), (3, None));
        assert_eq!(resolve_from(None, Some("7"), 16), (7, None));
        assert_eq!(resolve_from(None, None, 16), (16, None));
        // A zero CLI value falls through to the env.
        assert_eq!(resolve_from(Some(0), Some("5"), 16), (5, None));
        assert_eq!(resolve_from(None, Some(" 12 "), 4), (12, None));
        // Explicit values are not capped; the detected floor is 1.
        assert_eq!(resolve_from(Some(64), None, 2), (64, None));
        assert_eq!(resolve_from(None, Some("64"), 2), (64, None));
        assert_eq!(resolve_from(None, None, 0), (1, None));
    }

    #[test]
    fn resolve_parallelism_diagnoses_unusable_env_values() {
        // Malformed and zero env values fall back to the detected count —
        // but *say so*, instead of silently running at the wrong width.
        let rejected = |value: &str, detected: usize| {
            let (resolved, reason) = resolve_from(None, Some(value), detected);
            assert!(
                reason.is_some(),
                "env value {value:?} must surface a diagnostic"
            );
            resolved
        };
        assert_eq!(rejected("0", 4), 4);
        assert_eq!(rejected(" 0 ", 4), 4);
        assert_eq!(rejected("4x", 4), 4);
        assert_eq!(rejected("-2", 4), 4);
        assert_eq!(rejected("not a number", 4), 4);
        assert_eq!(rejected("1.5", 4), 4);

        // Empty and whitespace-only values are the conventional "unset"
        // spelling: no diagnostic, straight to the detected count.
        assert_eq!(resolve_from(None, Some(""), 4), (4, None));
        assert_eq!(resolve_from(None, Some("   "), 4), (4, None));
        assert_eq!(resolve_from(None, Some("\t"), 4), (4, None));

        // A CLI pin wins before the env value is even looked at.
        assert_eq!(resolve_from(Some(3), Some("4x"), 16), (3, None));
    }

    #[test]
    fn worker_lists_are_ascending_and_tile_the_input() {
        let keys: Vec<u64> = (0..40).map(|i| [10, 10, 10, 20, 30][i % 5]).collect();
        for shard in [Shard::RoundRobin, Shard::ByKey(&keys)] {
            for workers in [1usize, 2, 3, 5] {
                let lists = shard.worker_lists(40, workers);
                assert_eq!(lists.len(), workers);
                for list in &lists {
                    assert!(list.windows(2).all(|w| w[0] < w[1]), "ascending per slot");
                }
                let mut all: Vec<usize> = lists.iter().flatten().copied().collect();
                all.sort_unstable();
                assert_eq!(all, (0..40).collect::<Vec<_>>(), "lists tile the input");
                // The lists are exactly the assignment, regrouped.
                let assignments = shard.assignments(40, workers);
                for (w, list) in lists.iter().enumerate() {
                    for &i in list {
                        assert_eq!(assignments[i], w);
                    }
                }
            }
        }
    }

    #[test]
    fn cost_quantile_chunks_balance_by_cost_not_count() {
        // One 100x item among cheap ones: quantile boundaries isolate it.
        let items: Vec<usize> = (0..10).collect();
        let costs = |i: usize| if i == 3 { 100 } else { 1 };
        let plan = cost_quantile_chunks(&items, costs, 4);
        assert_eq!(plan.len(), 4);
        assert_eq!(
            plan.iter().flatten().copied().collect::<Vec<_>>(),
            items,
            "chunks stay contiguous and in order"
        );
        assert!(plan.iter().all(|c| !c.is_empty()));
        // The expensive item's chunk carries few cheap neighbours.
        let hot = plan.iter().find(|c| c.contains(&3)).unwrap();
        assert!(hot.len() <= 4, "hot chunk dragged {} items", hot.len());
        // A dominant first item (~90% of the cost) gets a chunk of its own,
        // where index quantiles would pair it with cheap followers.
        let plan = cost_quantile_chunks(&items, |i| if i == 0 { 90 } else { 1 }, 4);
        assert_eq!(plan.len(), 4);
        assert_eq!(plan[0], vec![0], "the dominant item gets its own chunk");
        assert_eq!(plan.iter().flatten().copied().collect::<Vec<_>>(), items);
        // Uniform costs degrade to near-equal counts, like index quantiles.
        let plan = cost_quantile_chunks(&items, |_| 7, 4);
        assert!(plan.iter().all(|c| (2..=3).contains(&c.len())), "{plan:?}");
        // More chunks than items clamps; empty input yields no chunks.
        assert_eq!(cost_quantile_chunks(&[5, 9], |_| 1, 4).len(), 2);
        assert!(cost_quantile_chunks(&[], |_| 1, 4).is_empty());
        // Zero costs count as one: no division-shaped surprises.
        assert_eq!(cost_quantile_chunks(&items, |_| 0, 5).len(), 5);
    }

    #[test]
    fn incremental_fold_matches_the_one_shot_fold() {
        // Reference: one-shot fold summing (index+1)^2 per worker slot,
        // merged in worker order into a Vec of partial sums.
        let keys: Vec<u64> = (0..30).map(|i| (i as u64) % 4).collect();
        let shard = Shard::ByKey(&keys);
        let workers = 3;
        let mut contexts = vec![(); workers];
        let reference = fold_indices_with_workers(
            &mut contexts,
            30,
            Shard::ByKey(&keys),
            Vec::new,
            |(), acc: &mut Vec<u64>, i| acc.push(((i as u64) + 1) * ((i as u64) + 1)),
            |into, from| into.extend(from),
        );

        // Resumable: cut each slot's list into cost-quantile chunks and
        // fold them in an adversarial interleaving (round-robin across
        // slots), checking accumulators in and out at every boundary.
        let lists = shard.worker_lists(30, workers);
        let mut fold: IncrementalFold<Vec<u64>> = IncrementalFold::new(workers, Vec::new);
        let mut chunks: Vec<std::collections::VecDeque<Vec<usize>>> = lists
            .iter()
            .map(|list| cost_quantile_chunks(list, |_| 1, 4).into())
            .collect();
        while chunks.iter().any(|c| !c.is_empty()) {
            for (slot, queue) in chunks.iter_mut().enumerate() {
                let Some(chunk) = queue.pop_front() else {
                    continue;
                };
                let mut acc = fold.checkout(slot, chunk[0]);
                for i in &chunk {
                    acc.push(((*i as u64) + 1) * ((*i as u64) + 1));
                }
                let next = chunk.last().unwrap() + 1;
                fold.restore(slot, acc, next);
            }
        }
        assert!(fold.is_idle());
        let merged = fold.finish(|into, from| into.extend(from));
        assert_eq!(merged, reference, "interleaved fold must be bit-identical");
    }

    #[test]
    #[should_panic(expected = "below watermark")]
    fn incremental_fold_rejects_out_of_order_chunks() {
        let mut fold: IncrementalFold<Vec<u64>> = IncrementalFold::new(2, Vec::new);
        let acc = fold.checkout(0, 5);
        fold.restore(0, acc, 10);
        let _ = fold.checkout(0, 4); // regresses below the watermark
    }

    #[test]
    #[should_panic(expected = "already checked out")]
    fn incremental_fold_rejects_concurrent_slot_checkout() {
        let mut fold: IncrementalFold<Vec<u64>> = IncrementalFold::new(1, Vec::new);
        let _acc = fold.checkout(0, 0);
        let _ = fold.checkout(0, 0);
    }
}
