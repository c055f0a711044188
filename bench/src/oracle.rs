//! Correctness checks that do not trust the code under test. They run
//! untimed, after the measured phase.
//!
//! Serve answers are refuted on sampled rows with `sia-expr`'s 3VL
//! evaluator and re-proved once per distinct answer by a fresh
//! `verify_implies`. Engine results are compared, as sorted row
//! fingerprints, against a reference evaluator that shares nothing with
//! the engine's optimizer or executor: hash on the join keys, then
//! `eval_pred` row at a time.

use std::collections::{BTreeMap, HashMap};

use sia_core::{verify_implies, PredEncoder, Validity};
use sia_engine::{Database, Table};
use sia_expr::{eval_pred, Pred, Value};

use crate::workload::{mix64, EngineOp, ServeOp, BED_SEED};

/// Rows sampled per table for refutation and for `rows_cut_share`.
pub const SAMPLE_ROWS: usize = 2048;

/// The oracle's finding on one (request, answer) pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Verdict {
    /// The answer is implied by the request: no sampled row refutes it and
    /// the solver proves the implication.
    pub sound: bool,
    /// Share of the sampled rows the answer rejects (is not TRUE on).
    pub rejected_share: f64,
}

/// Judge of `sia-serve` answers over one table's sampled rows.
#[derive(Debug)]
pub struct ServeOracle {
    columns: HashMap<String, usize>,
    rows: Vec<Vec<Value>>,
    verdicts: BTreeMap<(usize, u64), Verdict>,
}

impl ServeOracle {
    /// Sample [`SAMPLE_ROWS`] rows of `table` under the bed seed. The
    /// service synthesizes over the integers (requests carry no types),
    /// so the oracle's rows are integral too: doubles are truncated.
    pub fn new(table: &str) -> ServeOracle {
        let spec = sia_gen::table(table).expect("bed table exists in the registry");
        let rows = spec
            .sample(SAMPLE_ROWS, BED_SEED ^ 0x0AC1E)
            .into_iter()
            .map(|row| {
                row.into_iter()
                    .map(|v| match v {
                        #[allow(clippy::cast_possible_truncation)]
                        Value::Double(x) => Value::Int(x.trunc() as i64),
                        other => other,
                    })
                    .collect()
            })
            .collect();
        ServeOracle {
            columns: spec
                .cols
                .iter()
                .enumerate()
                .map(|(i, c)| (c.name.to_string(), i))
                .collect(),
            rows,
            verdicts: BTreeMap::new(),
        }
    }

    /// Judge `answer` (its text, `None` for TRUE) to request `op`; each
    /// distinct pair is judged once.
    pub fn judge(
        &mut self,
        index: usize,
        op: &ServeOp,
        digest: u64,
        answer: Option<&str>,
    ) -> Verdict {
        if let Some(v) = self.verdicts.get(&(index, digest)) {
            return *v;
        }
        let verdict = match answer {
            // TRUE is implied by everything and rejects nothing.
            None => Verdict {
                sound: true,
                rejected_share: 0.0,
            },
            Some(text) => self.judge_text(&op.predicate, text),
        };
        self.verdicts.insert((index, digest), verdict);
        verdict
    }

    fn judge_text(&self, original: &Pred, text: &str) -> Verdict {
        let unsound = Verdict {
            sound: false,
            rejected_share: 0.0,
        };
        let Ok(answer) = sia_sql::parse_predicate(text) else {
            return unsound;
        };
        let mut refuted = false;
        let mut rejected = 0usize;
        for row in &self.rows {
            let tuple = |name: &str| self.columns.get(name).map_or(Value::Null, |&i| row[i]);
            let kept = eval_pred(&answer, &tuple) == Some(true);
            rejected += usize::from(!kept);
            refuted |= !kept && eval_pred(original, &tuple) == Some(true);
        }
        let proved = matches!(
            verify_implies(&mut PredEncoder::new(), original, &answer),
            Ok(Validity::Valid)
        );
        #[allow(clippy::cast_precision_loss)]
        let rejected_share = rejected as f64 / self.rows.len() as f64;
        Verdict {
            sound: proved && !refuted,
            rejected_share,
        }
    }
}

fn name_hash(name: &str) -> u64 {
    let mut h = crate::workload::Fnv::default();
    h.write(name.as_bytes());
    h.0
}

fn cell_hash(name_hash: u64, v: Value) -> u64 {
    let bits = match v {
        Value::Null => 0x4E55_4C4C,
        #[allow(clippy::cast_sign_loss)]
        Value::Int(i) => mix64(i as u64),
        Value::Double(x) => mix64(x.to_bits()).rotate_left(17),
        Value::Bool(b) => 2 + u64::from(b),
    };
    mix64(name_hash ^ bits)
}

/// Order-insensitive fingerprint of a result set: one hash per row, each
/// the sum of its named cells' hashes (so column order does not matter
/// either), sorted.
pub fn result_fingerprint(table: &Table) -> Vec<u64> {
    let names: Vec<u64> = table
        .schema
        .columns()
        .iter()
        .map(|c| name_hash(&c.name))
        .collect();
    let mut rows: Vec<u64> = (0..table.num_rows())
        .map(|r| {
            names
                .iter()
                .zip(&table.columns)
                .fold(0u64, |acc, (&n, col)| {
                    acc.wrapping_add(cell_hash(n, col.get(r)))
                })
        })
        .collect();
    rows.sort_unstable();
    rows
}

/// The rows `op` must return, computed without the engine: join the FROM
/// list left to right on the given key pairs (hash on the new table's
/// key), then keep the tuples on which the filter is TRUE.
pub fn reference_fingerprint(db: &Database, op: &EngineOp) -> Result<Vec<u64>, String> {
    let tables: Vec<&Table> = op
        .tables
        .iter()
        .map(|t| db.table(t).ok_or_else(|| format!("no table {t}")))
        .collect::<Result<_, _>>()?;
    // Every column of every table: (name, table position, column index).
    let columns: Vec<(&str, usize, usize)> = tables
        .iter()
        .enumerate()
        .flat_map(|(ti, t)| {
            t.schema
                .columns()
                .iter()
                .enumerate()
                .map(move |(ci, c)| (c.name.as_str(), ti, ci))
        })
        .collect();
    let locate = |name: &str| {
        columns
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|&(_, ti, ci)| (ti, ci))
            .ok_or_else(|| format!("no column {name}"))
    };
    let key_bits = |v: Value| match v {
        Value::Int(i) => Some(i),
        #[allow(clippy::cast_possible_wrap)]
        Value::Double(x) => Some(x.to_bits() as i64),
        _ => None, // NULL never joins
    };

    // Tuples of row indices, `width` per tuple, over tables[0..width].
    let mut width = 1;
    let mut tuples: Vec<u32> =
        (0..u32::try_from(tables[0].num_rows()).map_err(|e| e.to_string())?).collect();
    let mut pending: Vec<((usize, usize), (usize, usize))> = op
        .joins
        .iter()
        .map(|(a, b)| Ok((locate(a)?, locate(b)?)))
        .collect::<Result<_, String>>()?;
    while width < tables.len() {
        // The FROM lists here are written so that table `width` joins to
        // an earlier one; anything else would need a cross product.
        let pos = pending
            .iter()
            .position(|(a, b)| (a.0 == width && b.0 < width) || (b.0 == width && a.0 < width))
            .ok_or_else(|| format!("table {} has no join to an earlier one", op.tables[width]))?;
        let (a, b) = pending.remove(pos);
        let (new, old) = if a.0 == width { (a, b) } else { (b, a) };
        let mut index: HashMap<i64, Vec<u32>> = HashMap::new();
        let new_col = &tables[width].columns[new.1];
        for r in 0..tables[width].num_rows() {
            if let Some(k) = key_bits(new_col.get(r)) {
                index
                    .entry(k)
                    .or_default()
                    .push(u32::try_from(r).map_err(|e| e.to_string())?);
            }
        }
        let old_col = &tables[old.0].columns[old.1];
        let mut next = Vec::new();
        for tuple in tuples.chunks_exact(width) {
            let Some(k) = key_bits(old_col.get(tuple[old.0] as usize)) else {
                continue;
            };
            for &r in index.get(&k).map_or(&[][..], Vec::as_slice) {
                next.extend_from_slice(tuple);
                next.push(r);
            }
        }
        tuples = next;
        width += 1;
    }
    // Key pairs that closed a cycle are plain equalities now.
    let leftover = Pred::and_all(pending.iter().map(|(a, b)| {
        let name = |p: &(usize, usize)| tables[p.0].schema.columns()[p.1].name.clone();
        sia_expr::col(name(a)).eq_(sia_expr::col(name(b)))
    }));
    let filter = op.filter.clone().and(leftover);

    let hashes: Vec<u64> = columns.iter().map(|(n, _, _)| name_hash(n)).collect();
    let mut rows = Vec::new();
    for tuple in tuples.chunks_exact(width) {
        let cell = |ti: usize, ci: usize| tables[ti].columns[ci].get(tuple[ti] as usize);
        let lookup = |name: &str| {
            columns
                .iter()
                .find(|(n, _, _)| *n == name)
                .map_or(Value::Null, |&(_, ti, ci)| cell(ti, ci))
        };
        if eval_pred(&filter, &lookup) == Some(true) {
            rows.push(
                columns
                    .iter()
                    .zip(&hashes)
                    .fold(0u64, |acc, (&(_, ti, ci), &h)| {
                        acc.wrapping_add(cell_hash(h, cell(ti, ci)))
                    }),
            );
        }
    }
    rows.sort_unstable();
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sia_engine::Column;
    use sia_expr::{col, lit, ColumnDef, DataType, Schema};

    fn tiny_db() -> Database {
        let ints = |names: &[&str]| {
            Schema::new(
                names
                    .iter()
                    .map(|n| ColumnDef::new(*n, DataType::Integer))
                    .collect(),
            )
        };
        let mut db = Database::new();
        db.insert(
            "a",
            Table::new(
                ints(&["ak", "av"]),
                vec![
                    Column::int(vec![1, 2, 2, 3]),
                    Column::int(vec![10, 20, 21, 30]),
                ],
            ),
        );
        db.insert(
            "b",
            Table::new(
                ints(&["bk", "bv"]),
                vec![Column::int(vec![2, 3, 4]), Column::int(vec![5, 6, 7])],
            ),
        );
        db
    }

    #[test]
    fn reference_agrees_with_the_engine_on_a_join_and_notices_a_wrong_result() {
        let db = tiny_db();
        let op = EngineOp {
            sql: "SELECT * FROM a, b WHERE ak = bk AND av + bv > 25".into(),
            tables: vec!["a".into(), "b".into()],
            joins: vec![("ak".into(), "bk".into())],
            filter: col("av").add(col("bv")).gt(lit(25)),
        };
        let want = reference_fingerprint(&db, &op).unwrap();
        // (2,21,2,5) and (3,30,3,6) survive; (2,20,2,5) does not.
        assert_eq!(want.len(), 2);
        let got = db.run_sql(&op.sql).unwrap();
        assert_eq!(result_fingerprint(&got.table), want);
        // A result missing a row, or with another value, does not match.
        let wrong = db
            .run_sql("SELECT * FROM a, b WHERE ak = bk AND av + bv > 26")
            .unwrap();
        assert_ne!(result_fingerprint(&wrong.table), want);
    }

    #[test]
    fn serve_oracle_accepts_implied_answers_and_rejects_stronger_ones() {
        let mut oracle = ServeOracle::new("lineitem");
        let predicate = col("l_quantity")
            .lt(lit(10))
            .and(col("l_linenumber").gt(lit(2)));
        let op = ServeOp {
            predicate,
            cols: vec!["l_quantity".into()],
            line: String::new(),
            key: String::new(),
        };
        let ok = oracle.judge(0, &op, 1, Some("l_quantity < 10"));
        assert!(ok.sound);
        // l_quantity is uniform on 1..=50: about 82 % of rows are cut.
        assert!(
            (ok.rejected_share - 0.82).abs() < 0.05,
            "{}",
            ok.rejected_share
        );
        assert!(!oracle.judge(0, &op, 2, Some("l_quantity < 5")).sound);
        assert!(!oracle.judge(0, &op, 3, Some("not a predicate (")).sound);
        let t = oracle.judge(0, &op, 0, None);
        assert!(t.sound && t.rejected_share == 0.0);
    }
}
