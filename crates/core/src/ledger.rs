//! The one record of a synthesis run. [`Ledger`] owns the run's
//! [`SynthStats`] and its TRUE and FALSE sample sets, and is the only
//! writer of either: phase times through [`Ledger::phase`], sample counts
//! through [`Ledger::add_true`] / [`Ledger::add_false`], rounds through
//! [`Ledger::round`]. Whatever exit a run takes, its stats are read off
//! here once.

use crate::synth::{SynthStats, SynthesisError};
use sia_num::BigInt;
use std::time::{Duration, Instant};

/// A phase of the driver: the span it runs under and the [`SynthStats`]
/// time it is charged to.
#[derive(Clone, Copy)]
pub(crate) enum Phase {
    /// Sample and counter-example generation, `generate`.
    Generate,
    /// The learner (Alg 2), `learn`.
    Learn,
    /// Validity checks and redundancy stripping, `verify`.
    Verify,
    /// `CounterF`: FALSE counter-examples the new valid predicate still
    /// accepts, `optimality`. Drawing them is generation.
    Optimality,
}

impl Phase {
    fn span(self) -> &'static str {
        match self {
            Phase::Generate => "generate",
            Phase::Learn => "learn",
            Phase::Verify => "verify",
            Phase::Optimality => "optimality",
        }
    }
}

/// A synthesis run's stats and samples, written in one place.
#[derive(Default)]
pub(crate) struct Ledger {
    stats: SynthStats,
    /// Wall time of the phases run so far inside the open one.
    nested: Duration,
    ts: Vec<Vec<BigInt>>,
    fs: Vec<Vec<BigInt>>,
}

impl Ledger {
    /// Run `f` under `phase`'s span and charge its wall time, less that of
    /// the phases nested in it, to `phase`'s field. So the three phase
    /// times partition the time spent in phases and never sum past the
    /// run's wall time. A phase that fails is charged too.
    pub(crate) fn phase<T>(
        &mut self,
        phase: Phase,
        f: impl FnOnce(&mut Ledger) -> Result<T, SynthesisError>,
    ) -> Result<T, SynthesisError> {
        let _span = sia_obs::span(phase.span());
        let outer = std::mem::take(&mut self.nested);
        let start = Instant::now();
        let out = f(self);
        let elapsed = start.elapsed();
        let inner = std::mem::replace(&mut self.nested, outer + elapsed);
        let time = match phase {
            Phase::Generate | Phase::Optimality => &mut self.stats.generation_time,
            Phase::Learn => &mut self.stats.learning_time,
            Phase::Verify => &mut self.stats.validation_time,
        };
        *time += elapsed.saturating_sub(inner);
        out
    }

    /// Start a learning-loop round.
    pub(crate) fn round(&mut self) {
        self.stats.iterations += 1;
    }

    /// Learning-loop rounds started so far.
    pub(crate) fn rounds(&self) -> u32 {
        self.stats.iterations
    }

    /// Add drawn TRUE samples to the run's set.
    pub(crate) fn add_true(&mut self, samples: Vec<Vec<BigInt>>) {
        self.ts.extend(samples);
        self.stats.true_samples = self.ts.len();
    }

    /// Add drawn FALSE samples to the run's set.
    pub(crate) fn add_false(&mut self, samples: Vec<Vec<BigInt>>) {
        self.fs.extend(samples);
        self.stats.false_samples = self.fs.len();
    }

    /// Note the atom counts of the input and of its projection.
    pub(crate) fn projected(&mut self, input: usize, projection: usize) {
        self.stats.projection_atoms = Some((input, projection));
    }

    /// The TRUE samples drawn so far.
    pub(crate) fn true_samples(&self) -> &[Vec<BigInt>] {
        &self.ts
    }

    /// The FALSE samples drawn so far.
    pub(crate) fn false_samples(&self) -> &[Vec<BigInt>] {
        &self.fs
    }

    /// The run's record, whichever way it ended.
    pub(crate) fn into_stats(self) -> SynthStats {
        self.stats
    }
}
