//! Source (c): each lower layer's kernel, timed on its own, on inputs
//! derived from the workload's operations — so a change to one kernel
//! shows here even where the end-to-end share of that kernel is small.

use std::time::Instant;

use sia_analyze::Analyzer;
use sia_core::{PredEncoder, Sampler};
use sia_expr::Pred;
use sia_num::{BigInt, BigRat};
use sia_rand::rngs::StdRng;
use sia_rand::{Rng, SeedableRng};
use sia_smt::{eliminate_exists, QeConfig, VarId};
use sia_svm::{train_with_stats, Sample, SvmConfig};

use crate::stats::median;
use crate::workload::{Ops, Workload, BED_SEED};

/// Distinct operations the per-operation kernels run on.
const KERNEL_OPS: usize = 12;

/// TRUE and FALSE samples drawn per operation for the SVM kernel: the
/// synthesizer's initial sample counts.
const SAMPLES_PER_CLASS: usize = 10;

/// Operations in the fixed `sia-num` stream.
const NUM_OPS: usize = 4_000;

/// Repetitions of the `sia-num` stream; its median is reported.
const NUM_REPS: usize = 5;

fn us_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e6
}

/// `(predicate, target columns)` of the first distinct operations, in the
/// seed's order. An engine query contributes its filter, with the columns
/// of its first table as the target — what move-around would synthesize
/// for.
fn inputs(w: &Workload) -> Vec<(Pred, Vec<String>)> {
    let mut seen: Vec<String> = Vec::new();
    let mut out = Vec::new();
    for &i in &w.order {
        let (text, pred, cols) = match &w.ops {
            Ops::Serve { ops, .. } => (
                ops[i].key.clone(),
                ops[i].predicate.clone(),
                ops[i].cols.clone(),
            ),
            Ops::Engine { ops, .. } => {
                let op = &ops[i];
                let all = op.filter.columns();
                let prefix: String = all
                    .first()
                    .map_or(String::new(), |c| c.chars().take(2).collect());
                let cols: Vec<String> = all
                    .iter()
                    .filter(|c| c.starts_with(&prefix))
                    .cloned()
                    .collect();
                (op.sql.clone(), op.filter.clone(), cols)
            }
        };
        if !seen.contains(&text) && !cols.is_empty() {
            seen.push(text);
            out.push((pred, cols));
        }
        if out.len() == KERNEL_OPS {
            break;
        }
    }
    out
}

/// Run every kernel; each value is a median over the operations (or, for
/// `sia-num`, over repetitions of the fixed stream).
pub fn run(w: &Workload) -> Vec<(&'static str, Option<f64>)> {
    let (mut check_us, mut qe_us, mut train_us, mut close_us) = (vec![], vec![], vec![], vec![]);
    for (pred, cols) in inputs(w) {
        let start = Instant::now();
        std::hint::black_box(Analyzer::new().close(std::hint::black_box(&pred)));
        close_us.push(us_since(start));

        // smt: encode + check.
        let mut enc = PredEncoder::new();
        let start = Instant::now();
        let Ok(formula) = enc.encode(&pred) else {
            continue;
        };
        std::hint::black_box(enc.solver().check(&formula));
        check_us.push(us_since(start));

        // smt: Cooper elimination of everything but the first target
        // column (serve requests target all their columns, which would
        // leave nothing to eliminate).
        let keep: Vec<VarId> = cols.iter().map(|c| enc.value_var(c)).collect();
        let others: Vec<VarId> = enc
            .columns()
            .map(|(_, v)| v)
            .filter(|v| *v != keep[0])
            .collect();
        let start = Instant::now();
        std::hint::black_box(eliminate_exists(&formula, &others, &QeConfig::default()).is_ok());
        qe_us.push(us_since(start));

        // svm: train on the synthesizer's kind of input, 10 TRUE tuples
        // and 10 FALSE ones drawn by the product's sampler.
        let mut samples = Vec::new();
        for (region, label) in [(formula.clone(), true), (formula.clone().not(), false)] {
            let mut sampler = Sampler::new(region, keep.clone(), BED_SEED);
            let (tuples, _) = sampler.take(enc.solver(), SAMPLES_PER_CLASS);
            samples.extend(
                tuples
                    .iter()
                    .map(|t| Sample::new(t.iter().map(BigInt::to_f64).collect(), label)),
            );
        }
        if samples.iter().any(|s| s.label) && samples.iter().any(|s| !s.label) {
            let start = Instant::now();
            std::hint::black_box(train_with_stats(&samples, &SvmConfig::default()));
            train_us.push(us_since(start));
        }
    }

    let mut num_us = Vec::new();
    let mut num_allocs = Vec::new();
    for _ in 0..NUM_REPS {
        let before = crate::alloc::counts().0;
        let start = Instant::now();
        std::hint::black_box(num_stream());
        num_us.push(us_since(start));
        #[allow(clippy::cast_precision_loss)]
        num_allocs.push((crate::alloc::counts().0 - before) as f64);
    }
    let med = |mut v: Vec<f64>| (!v.is_empty()).then(|| median(&mut v));
    vec![
        ("analyze.close_us", med(close_us)),
        ("smt.check_kernel_us", med(check_us)),
        ("smt.qe_us", med(qe_us)),
        ("svm.train_kernel_us", med(train_us)),
        ("num.kernel_us", med(num_us)),
        ("num.allocs_per_kernel", med(num_allocs)),
    ]
}

/// A fixed stream of independent `BigInt` / `BigRat` operations shaped
/// like a simplex pivot's (multiply, add, gcd, normalize a quotient, add
/// quotients): nine in ten operands fit one limb, the rest need three.
/// Returns a checksum so the work cannot be optimized away.
fn num_stream() -> f64 {
    let mut rng = StdRng::seed_from_u64(BED_SEED);
    let operand = |rng: &mut StdRng| {
        let small = BigInt::from(rng.gen_range(-1_000_000i64..=1_000_000));
        if rng.gen_bool(0.9) {
            small
        } else {
            let wide = BigInt::from(rng.gen_range(1i64 << 30..1i64 << 31));
            &(&wide * &wide) * &(&wide + &small)
        }
    };
    let mut checksum = 0.0;
    for _ in 0..NUM_OPS {
        let (a, b, c) = (operand(&mut rng), operand(&mut rng), operand(&mut rng));
        let den = if b.is_zero() { BigInt::from(1) } else { b };
        let pivot = BigRat::new(&(&a * &c) + &a.gcd(&den), den);
        let row = &(&pivot * &BigRat::from(3)) + &BigRat::new(c, BigInt::from(7));
        checksum += row.to_f64().clamp(-1e30, 1e30);
    }
    checksum
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::SPECS;

    #[test]
    fn num_stream_is_fixed() {
        assert_eq!(num_stream().to_bits(), num_stream().to_bits());
    }

    #[test]
    fn every_workload_yields_kernel_inputs_with_targets_in_the_predicate() {
        for spec in &SPECS {
            let ins = inputs(&Workload::build(spec, 1));
            assert!(!ins.is_empty(), "{}", spec.name);
            for (pred, cols) in ins {
                let all = pred.columns();
                assert!(cols.iter().all(|c| all.contains(c)));
            }
        }
    }
}
