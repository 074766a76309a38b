//! The untraced pass runs every phase in [`PASSES`] slices and interleaves
//! the slices of all phases, so each metric draws its samples from the whole
//! run, not from one stretch of it.
//!
//! The sandbox this was calibrated on shifts speed by 15-20 % for ten or
//! twenty seconds at a time, a few times a minute. A phase measured in one
//! stretch is either inside such a period or outside it, and its metrics
//! jump with it; a phase measured in slices spread over the run sees the
//! run's mixture, its medians do not move until a period covers half the
//! run, and its tails and rates move by the period's share only.

use crate::env::{Env, Tally};
use crate::metrics::Values;

/// Slices per phase.
pub const PASSES: usize = 3;

/// The `i`-th of [`PASSES`] near-equal shares of `n`.
pub fn share(n: usize, i: usize) -> usize {
    n * (i + 1) / PASSES - n * i / PASSES
}

/// One phase of the untraced pass, built by its module's `start` (set-up
/// repetitions and warm-up included).
pub trait Phase {
    /// Runs the `i`-th slice of the timed work.
    fn pass(&mut self, env: &Env, i: usize, tally: &mut Tally) -> Result<(), String>;

    /// The memory peak this phase wants reported instead of the peak after
    /// its first slice, if any.
    fn rss_mark(&self) -> Option<f64> {
        None
    }

    /// Sets the phase's metrics, verifies its answers (untimed) and returns
    /// its set-up samples in seconds.
    fn finish(
        self: Box<Self>,
        env: &Env,
        values: &mut Values,
        tally: &mut Tally,
    ) -> Result<Vec<f64>, String>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_partition_any_count() {
        for n in [0, 1, 2, 3, 17, 100, 2_400] {
            let parts: Vec<usize> = (0..PASSES).map(|i| share(n, i)).collect();
            assert_eq!(parts.iter().sum::<usize>(), n);
            assert!(parts.iter().max().unwrap() - parts.iter().min().unwrap() <= 1);
        }
    }
}
