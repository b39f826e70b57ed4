//! Pluggable parallel execution for density accumulation.
//!
//! The density crate must not depend on the wirelength crate (where the
//! persistent evaluation engine lives), so parallelism is injected through
//! the [`ParallelExec`] trait: the placer wraps its engine in an adapter
//! and installs it with [`crate::Electrostatics::set_executor`]. Without
//! an executor (or with [`SerialExec`]) everything runs serially on the
//! calling thread.

use std::sync::{Mutex, PoisonError};

/// A deterministic part-dispatch primitive.
///
/// Implementations must execute `f(part)` exactly once for every part in
/// `0..parts` and return only after all parts completed. Thread and order
/// are unspecified; callers keep outputs per part and combine them in a
/// fixed order, which makes results independent of the implementation.
pub trait ParallelExec: Send + Sync + std::fmt::Debug {
    /// Executes `f` over `0..parts`.
    fn run(&self, parts: usize, f: &(dyn Fn(usize) + Sync));
}

/// The half-open item range `[lo, hi)` owned by `part` when `items` work
/// items are split into `parts` fixed contiguous chunks.
///
/// The split depends only on `(items, parts, part)` — never on thread
/// identity or timing — which is what lets callers promise bit-identical
/// results at any thread count. Sizes differ by at most one item.
pub fn part_bounds(items: usize, parts: usize, part: usize) -> (usize, usize) {
    debug_assert!(part < parts, "part {part} out of range 0..{parts}");
    let lo = (items as u128 * part as u128 / parts as u128) as usize;
    let hi = (items as u128 * (part as u128 + 1) / parts as u128) as usize;
    (lo, hi)
}

/// Most parts [`run_owned`] hands out in one dispatch; executors asking for
/// more are capped here (bits never depend on the part count).
pub(crate) const MAX_PARTS: usize = 64;

/// Runs `f` once per part on `exec`, handing part `p` exclusive ownership
/// of `piece(p)` — typically disjoint `&mut` sub-slices of one output.
///
/// `piece` is called for `p = 0, 1, …, parts - 1` in order before any `f`
/// runs, so it may split a buffer progressively. With one part `f` runs
/// directly on the calling thread and `exec` is not consulted. The
/// pieces live in a fixed stack array: nothing is allocated.
pub(crate) fn run_owned<T: Send>(
    exec: &dyn ParallelExec,
    parts: usize,
    mut piece: impl FnMut(usize) -> T,
    f: &(dyn Fn(T) + Sync),
) {
    let parts = parts.clamp(1, MAX_PARTS);
    if parts == 1 {
        f(piece(0));
        return;
    }
    let slots: [Mutex<Option<T>>; MAX_PARTS] =
        std::array::from_fn(|p| Mutex::new((p < parts).then(|| piece(p))));
    exec.run(parts, &|p| {
        // a slot is plain data; a poisoned lock still holds a valid piece
        let taken = slots
            .get(p)
            .and_then(|s| s.lock().unwrap_or_else(PoisonError::into_inner).take());
        if let Some(t) = taken {
            f(t);
        }
    });
}

/// The trivial executor: ascending part order on the calling thread.
#[derive(Debug, Clone, Copy, Default)]
pub struct SerialExec;

impl ParallelExec for SerialExec {
    fn run(&self, parts: usize, f: &(dyn Fn(usize) + Sync)) {
        for i in 0..parts {
            f(i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_exec_covers_all_parts_in_order() {
        let order = std::sync::Mutex::new(Vec::new());
        SerialExec.run(5, &|i| order.lock().unwrap().push(i));
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn part_bounds_cover_all_items_without_overlap() {
        for items in [0usize, 1, 5, 64, 1000, 1 << 20] {
            for parts in [1usize, 2, 3, 7, 8, 64] {
                let mut next = 0;
                for p in 0..parts {
                    let (lo, hi) = part_bounds(items, parts, p);
                    assert_eq!(lo, next, "items={items} parts={parts} part={p}");
                    assert!(hi >= lo);
                    assert!(hi - lo <= items / parts + 1);
                    next = hi;
                }
                assert_eq!(next, items, "items={items} parts={parts}");
            }
        }
    }
}
