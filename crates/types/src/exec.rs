//! Static work partitioning and worker-count resolution for the cell
//! matrix.
//!
//! The SysScale evaluation is an embarrassingly parallel matrix of
//! independent simulation cells. Executing cells is the scenario layer's
//! job (`SweepSet::fold_flat_slice` in the `sysscale` crate); this module
//! holds the scheduling-free pieces every executor plans with:
//!
//! * **static sharding** — [`Shard`] assigns items to workers as a pure
//!   function of `(item index, worker count, strategy)`, and
//!   [`Shard::worker_lists`] turns the assignment into one ascending index
//!   list per worker. There is no work stealing and no shared queue, so
//!   every run of the same input is partitioned identically. Two
//!   strategies exist: plain round-robin (worker `w` of `n` gets items
//!   `w, w + n, w + 2n, …`) and keyed sharding (items sharing a key — e.g.
//!   simulation cells on the same platform — are grouped onto as few
//!   workers as possible while keeping every worker busy; see
//!   [`Shard::ByKey`]);
//! * **lease sizing** — [`cost_quantile_chunks`] cuts a worker's list into
//!   contiguous, cost-balanced pieces that an executor can run one at a
//!   time;
//! * **worker counts** — [`effective_workers`] clamps a requested count to
//!   the input, and [`resolve_parallelism`] (with [`default_threads`] and
//!   [`default_procs`]) resolves it from a CLI value, the environment and
//!   the detected cores.
//!
//! Determinism caveat: a static partition fixes which worker folds which
//! items, in which order. Bit-identical results additionally require that
//! the executor merges per-list results in list order and that the work
//! done per item is a pure function of the item.

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
/// pair is insensitive to the partition produces identical output under
/// either strategy.
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
        match self {
            Shard::RoundRobin => (0..len).map(|i| i % workers).collect(),
            Shard::ByKey(keys) => {
                assert!(
                    keys.len() >= len,
                    "shard keys ({}) shorter than the input ({len})",
                    keys.len()
                );
                let (ranks, distinct) = dense_ranks(&keys[..len]);
                spread_groups(ranks, distinct, workers)
            }
        }
    }

    /// Materializes each worker's **ascending index list** for this shard,
    /// as one `Vec` per worker. The concatenation of the lists is a
    /// permutation of `0..len`, and each list is strictly ascending.
    ///
    /// This is the plan every executor runs: one fold per list, or each
    /// list cut into leases (e.g. with [`cost_quantile_chunks`]) whose
    /// results are merged in list order.
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
        let keys: Vec<u64> = (0..24).map(|i| if i < 12 { 10 } else { 11 }).collect();

        for workers in [1, 2, 3, 8] {
            let lists = Shard::ByKey(&keys).worker_lists(keys.len(), workers);
            let mut all: Vec<usize> = lists.concat();
            all.sort_unstable();
            assert_eq!(all, (0..24).collect::<Vec<_>>(), "workers={workers}");
            let owners = |key: u64| -> Vec<usize> {
                lists
                    .iter()
                    .enumerate()
                    .filter(|(_, list)| list.iter().any(|&i| keys[i] == key))
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
        let _ = Shard::ByKey(&keys).worker_lists(5, 2);
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
}
