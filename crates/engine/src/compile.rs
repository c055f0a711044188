//! Predicate compilation: resolve column names to column indices once, so
//! the per-row evaluation loop does no string hashing.

use crate::table::{Column, ColumnData};
use sia_expr::{ArithOp, CmpOp, Expr, Pred, Schema};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::slice;

/// A compiled arithmetic expression over column indices.
#[derive(Debug, Clone)]
pub enum CExpr {
    /// Column payload by index.
    Col(usize),
    /// Integer constant (dates already lowered to day offsets).
    ConstI(i64),
    /// Double constant.
    ConstF(f64),
    /// Binary arithmetic.
    Bin(ArithOp, Box<CExpr>, Box<CExpr>),
}

/// A compiled predicate over column indices.
#[derive(Debug, Clone)]
pub enum CPred {
    /// Constant.
    Lit(bool),
    /// Comparison.
    Cmp(CmpOp, CExpr, CExpr),
    /// Conjunction.
    And(Vec<CPred>),
    /// Disjunction.
    Or(Vec<CPred>),
    /// Negation.
    Not(Box<CPred>),
}

/// Compile-time error: a referenced column is missing from the schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownColumn(pub String);

impl std::fmt::Display for UnknownColumn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown column {:?}", self.0)
    }
}

impl std::error::Error for UnknownColumn {}

/// Compile an expression against a schema.
pub fn compile_expr(e: &Expr, schema: &Schema) -> Result<CExpr, UnknownColumn> {
    Ok(match e {
        Expr::Column(c) => CExpr::Col(schema.index_of(c).ok_or_else(|| UnknownColumn(c.clone()))?),
        Expr::Int(v) => CExpr::ConstI(*v),
        Expr::Double(v) => CExpr::ConstF(*v),
        Expr::Date(d) => CExpr::ConstI(d.to_days()),
        Expr::Binary { op, lhs, rhs } => CExpr::Bin(
            *op,
            Box::new(compile_expr(lhs, schema)?),
            Box::new(compile_expr(rhs, schema)?),
        ),
    })
}

/// Compile a predicate against a schema.
pub fn compile_pred(p: &Pred, schema: &Schema) -> Result<CPred, UnknownColumn> {
    Ok(match p {
        Pred::Lit(b) => CPred::Lit(*b),
        Pred::Cmp { op, lhs, rhs } => {
            CPred::Cmp(*op, compile_expr(lhs, schema)?, compile_expr(rhs, schema)?)
        }
        Pred::And(ps) => CPred::And(
            ps.iter()
                .map(|q| compile_pred(q, schema))
                .collect::<Result<_, _>>()?,
        ),
        Pred::Or(ps) => CPred::Or(
            ps.iter()
                .map(|q| compile_pred(q, schema))
                .collect::<Result<_, _>>()?,
        ),
        Pred::Not(q) => CPred::Not(Box::new(compile_pred(q, schema)?)),
    })
}

/// Rows evaluated at a time: the few lanes a predicate needs stay in L1.
const CHUNK: u32 = 2048;

/// A column as the chunked evaluator and the join read it: relation row
/// `p` is payload row `sel[p]`, or `p` itself when there is no selection.
#[derive(Debug, Clone, Copy)]
pub struct ColRef<'a> {
    /// The payload and its validity mask.
    pub col: &'a Column,
    /// The selection vector between relation rows and payload rows.
    pub sel: Option<&'a [u32]>,
}

impl<'a> ColRef<'a> {
    /// A column read in full, unselected.
    pub fn whole(col: &'a Column) -> Self {
        ColRef { col, sel: None }
    }

    /// The payload row behind relation row `p`.
    pub fn row(&self, p: u32) -> usize {
        self.sel.map_or(p, |sel| sel[p as usize]) as usize
    }

    /// `values` (the payload or its validity mask) on the candidates, which
    /// ascend: borrowed in place when they are one dense run of an
    /// unselected column, else gathered.
    fn gather<T: Copy>(&self, values: &'a [T], cand: &[u32]) -> Cow<'a, [T]> {
        if let (None, Some(&first), Some(&last)) = (self.sel, cand.first(), cand.last()) {
            if (last - first) as usize == cand.len() - 1 {
                return Cow::Borrowed(&values[first as usize..=last as usize]);
            }
        }
        Cow::Owned(match self.sel {
            None => cand.iter().map(|&p| values[p as usize]).collect(),
            Some(sel) => cand
                .iter()
                .map(|&p| values[sel[p as usize] as usize])
                .collect(),
        })
    }
}

/// One chunk of values; a lane of length 1 is a constant, broadcast.
enum Lane<'a> {
    I(Cow<'a, [i64]>),
    F(Cow<'a, [f64]>),
}

impl<'a> Lane<'a> {
    fn into_f64(self) -> Cow<'a, [f64]> {
        match self {
            Lane::I(v) => Cow::Owned(v.iter().map(|&x| x as f64).collect()),
            Lane::F(v) => v,
        }
    }
}

/// Which rows of a lane are not NULL; `None` = all of them.
type Valid<'a> = Option<Cow<'a, [bool]>>;

/// `f` over two lanes row by row, a length-1 lane broadcast over the other.
fn zip<A: Copy, B: Copy, U>(a: &[A], b: &[B], f: impl Fn(A, B) -> U) -> Vec<U> {
    match (a, b) {
        ([x], _) => b.iter().map(|&y| f(*x, y)).collect(),
        (_, [y]) => a.iter().map(|&x| f(x, *y)).collect(),
        _ => a.iter().zip(b).map(|(&x, &y)| f(x, y)).collect(),
    }
}

fn both_valid<'a>(a: Valid<'a>, b: Valid<'a>) -> Valid<'a> {
    match (a, b) {
        (Some(a), Some(b)) => Some(Cow::Owned(zip(&a, &b, |x, y| x && y))),
        (a, b) => a.or(b),
    }
}

/// Three-valued truth as a byte, ordered so that AND is `min`, OR is `max`
/// and NOT is `TRUE - x`.
const FALSE: u8 = 0;
const NULL: u8 = 1;
const TRUE: u8 = 2;

fn truth_of(b: bool) -> u8 {
    TRUE * u8::from(b)
}

/// The comparison's verdict row by row; unordered (NaN) is NULL.
fn compare<T: Copy + PartialOrd>(op: CmpOp, a: &[T], b: &[T]) -> Vec<u8> {
    // Looked up by `Ordering as usize + 1`, so the loop does not branch.
    let verdict =
        [Ordering::Less, Ordering::Equal, Ordering::Greater].map(|ord| truth_of(op.eval_ord(ord)));
    let of = |ord: Ordering| verdict[(ord as i8 + 1) as usize];
    zip(a, b, |x, y| x.partial_cmp(&y).map_or(NULL, of))
}

/// Move the candidates `keep` accepts (by position) to the front, in
/// order, and return how many there are, without a data-dependent branch.
fn compact(cand: &mut [u32], keep: impl Fn(usize) -> bool) -> usize {
    let mut kept = 0;
    for k in 0..cand.len() {
        cand[kept] = cand[k];
        kept += usize::from(keep(k));
    }
    kept
}

/// [`compact`] the candidates on which the comparison is TRUE: both sides
/// valid and `op` holding between them. Unordered (NaN) holds under no
/// operator, `<>` included.
fn keep_cmp<T: Copy + PartialOrd>(
    op: CmpOp,
    cand: &mut [u32],
    a: &[T],
    b: &[T],
    valid: Option<&[bool]>,
) -> usize {
    match op {
        CmpOp::Lt => keep_where(cand, a, b, valid, |x, y| x < y),
        CmpOp::Le => keep_where(cand, a, b, valid, |x, y| x <= y),
        CmpOp::Gt => keep_where(cand, a, b, valid, |x, y| x > y),
        CmpOp::Ge => keep_where(cand, a, b, valid, |x, y| x >= y),
        CmpOp::Eq => keep_where(cand, a, b, valid, |x, y| x == y),
        // Not `x != y`, which NaN satisfies.
        CmpOp::Ne => keep_where(cand, a, b, valid, |x, y| {
            x.partial_cmp(&y).is_some_and(Ordering::is_ne)
        }),
    }
}

/// [`compact`] the candidates where `valid` (if any) and `holds` are both
/// true of the two lanes, a length-1 lane or mask broadcast over the rest.
fn keep_where<T: Copy>(
    cand: &mut [u32],
    a: &[T],
    b: &[T],
    valid: Option<&[bool]>,
    holds: impl Fn(T, T) -> bool,
) -> usize {
    let n = cand.len();
    // A mask of length 1 is a constant's too (`a / 2`), broadcast.
    let valid = match valid {
        Some([true]) => None,
        Some([false]) => return 0,
        valid => valid,
    };
    match (a, b, valid) {
        // Constant against constant: one verdict for every candidate.
        ([x], [y], _) => n * usize::from(holds(*x, *y)),
        ([x], _, None) => compact(cand, |k| holds(*x, b[k])),
        (_, [y], None) => compact(cand, |k| holds(a[k], *y)),
        (_, _, None) => compact(cand, |k| holds(a[k], b[k])),
        ([x], _, Some(v)) => compact(cand, |k| v[k] & holds(*x, b[k])),
        (_, [y], Some(v)) => compact(cand, |k| v[k] & holds(a[k], *y)),
        (_, _, Some(v)) => compact(cand, |k| v[k] & holds(a[k], b[k])),
    }
}

impl CExpr {
    /// The expression's values on one or more candidate rows, which
    /// ascend.
    fn lanes<'a>(&'a self, cols: &[ColRef<'a>], cand: &[u32]) -> (Lane<'a>, Valid<'a>) {
        match self {
            CExpr::Col(i) => {
                let c = cols[*i];
                let lane = match &c.col.data {
                    ColumnData::Int(v) => Lane::I(c.gather(v, cand)),
                    ColumnData::Double(v) => Lane::F(c.gather(v, cand)),
                };
                (lane, c.col.validity.as_deref().map(|m| c.gather(m, cand)))
            }
            CExpr::ConstI(v) => (Lane::I(Cow::Borrowed(slice::from_ref(v))), None),
            CExpr::ConstF(v) => (Lane::F(Cow::Borrowed(slice::from_ref(v))), None),
            CExpr::Bin(op, l, r) => {
                let ((l, l_valid), (r, r_valid)) = (l.lanes(cols, cand), r.lanes(cols, cand));
                // `x / 0` is NULL; the quotient written under it is never read.
                let nonzero = (*op == ArithOp::Div).then(|| match &r {
                    Lane::I(b) => b.iter().map(|&y| y != 0).collect(),
                    Lane::F(b) => b.iter().map(|&y| y != 0.0).collect(),
                });
                let lane = match (l, r) {
                    (Lane::I(a), Lane::I(b)) => Lane::I(Cow::Owned(match op {
                        ArithOp::Add => zip(&a, &b, i64::saturating_add),
                        ArithOp::Sub => zip(&a, &b, i64::saturating_sub),
                        ArithOp::Mul => zip(&a, &b, i64::saturating_mul),
                        ArithOp::Div => {
                            zip(&a, &b, |x, y| x.wrapping_div(if y == 0 { 1 } else { y }))
                        }
                    })),
                    (a, b) => {
                        let (a, b) = (a.into_f64(), b.into_f64());
                        Lane::F(Cow::Owned(match op {
                            ArithOp::Add => zip(&a, &b, |x, y| x + y),
                            ArithOp::Sub => zip(&a, &b, |x, y| x - y),
                            ArithOp::Mul => zip(&a, &b, |x, y| x * y),
                            ArithOp::Div => zip(&a, &b, |x, y| x / y),
                        }))
                    }
                };
                (lane, both_valid(both_valid(l_valid, r_valid), nonzero))
            }
        }
    }
}

impl CPred {
    /// The relation rows (of `rows`, over `cols`) on which the predicate is
    /// TRUE, ascending — WHERE semantics: NULL rejects — written over
    /// whatever `out` held. This is the one evaluator execution uses;
    /// its tests hold it to `sia_expr::eval_pred`, row by row.
    pub fn select(&self, cols: &[ColRef<'_>], rows: u32, mut out: Vec<u32>) -> Vec<u32> {
        out.clear();
        // `out`'s tail is the candidate list: a chunk's rows go after what
        // the chunks before kept, and are narrowed where they stand.
        for lo in (0..rows).step_by(CHUNK as usize) {
            let done = out.len();
            out.extend(lo..rows.min(lo.saturating_add(CHUNK)));
            let kept = self.narrow(cols, &mut out[done..]);
            out.truncate(done + kept);
        }
        out
    }

    /// Move the candidates (ascending) the predicate is TRUE on to the
    /// front, in order, and return how many there are. A conjunction hands
    /// each conjunct only what the ones before it kept, and a comparison
    /// keeps rows in the pass that compares them; only `OR` and `NOT` need
    /// the three-valued [`CPred::truth`].
    fn narrow(&self, cols: &[ColRef<'_>], cand: &mut [u32]) -> usize {
        if cand.is_empty() {
            return 0;
        }
        match self {
            CPred::Lit(b) => cand.len() * usize::from(*b),
            CPred::Cmp(op, l, r) => {
                let ((l, l_valid), (r, r_valid)) = (l.lanes(cols, cand), r.lanes(cols, cand));
                let valid = both_valid(l_valid, r_valid);
                match (l, r) {
                    (Lane::I(a), Lane::I(b)) => keep_cmp(*op, cand, &a, &b, valid.as_deref()),
                    (a, b) => keep_cmp(*op, cand, &a.into_f64(), &b.into_f64(), valid.as_deref()),
                }
            }
            CPred::And(ps) => {
                let all = cand.len();
                ps.iter().fold(all, |n, p| p.narrow(cols, &mut cand[..n]))
            }
            CPred::Or(_) | CPred::Not(_) => {
                let truth = self.truth(cols, cand);
                compact(cand, |k| truth[k] == TRUE)
            }
        }
    }

    /// Three-valued truth of the predicate on each of one or more
    /// candidates, which ascend.
    fn truth(&self, cols: &[ColRef<'_>], cand: &[u32]) -> Vec<u8> {
        let n = cand.len();
        let of = |p: &CPred| p.truth(cols, cand);
        match self {
            CPred::Lit(b) => vec![truth_of(*b); n],
            CPred::Cmp(op, l, r) => {
                let ((l, l_valid), (r, r_valid)) = (l.lanes(cols, cand), r.lanes(cols, cand));
                let mut truth = match (l, r) {
                    (Lane::I(a), Lane::I(b)) => compare(*op, &a, &b),
                    (a, b) => compare(*op, &a.into_f64(), &b.into_f64()),
                };
                if let Some(valid) = both_valid(l_valid, r_valid) {
                    truth = zip(&truth, &valid, |t, ok| if ok { t } else { NULL });
                }
                // Constant against constant: one verdict for every row.
                truth.resize(n, truth[0]);
                truth
            }
            CPred::And(ps) => ps
                .iter()
                .fold(vec![TRUE; n], |acc, p| zip(&acc, &of(p), u8::min)),
            CPred::Or(ps) => ps
                .iter()
                .fold(vec![FALSE; n], |acc, p| zip(&acc, &of(p), u8::max)),
            CPred::Not(p) => of(p).into_iter().map(|t| TRUE - t).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Scratch;
    use crate::table::{Column, Table};
    use sia_expr::{ColumnDef, DataType};
    use sia_sql::parse_predicate;

    pub(super) fn schema() -> Schema {
        Schema::new(vec![
            ColumnDef::new("a", DataType::Integer),
            ColumnDef::new("b", DataType::Integer),
            ColumnDef::new("d", DataType::Double),
        ])
    }

    fn table() -> Table {
        Table::new(
            schema(),
            vec![
                Column::int(vec![1, 5, 10, -3]),
                Column::int(vec![2, 2, 2, 2]),
                Column::double(vec![0.5, 4.5, 10.5, -2.5]),
            ],
        )
    }

    /// Lengths on both sides of every chunk edge.
    pub(super) const LENGTHS: [usize; 6] = [0, 1, 2047, 2048, 2049, 5000];

    /// `base`'s rows repeated cyclically up to `len` rows.
    pub(super) fn tiled(base: &Table, len: usize) -> Table {
        let rows: Vec<u32> = (0..len).map(|i| (i % base.num_rows()) as u32).collect();
        let scratch = Scratch::default();
        let columns = base.columns.iter().map(|c| c.gather(Some(&rows), &scratch));
        let columns = columns.collect();
        Table::new(base.schema.clone(), columns)
    }

    /// Compile `sql`, check the chunked evaluator against
    /// `sia_expr::eval_pred` on every row under each candidate shape, and
    /// return the selected rows. The shapes: (a) the table unselected;
    /// (b) the same rows through a permuting selection vector; (c) the
    /// candidates a conjunct before it leaves, every row whose number is
    /// not a multiple of three, over (a) and over (b).
    pub(super) fn select(sql: &str, t: &Table) -> Vec<u32> {
        let pred = parse_predicate(sql).unwrap();
        let n = t.num_rows() as u32;
        let reference: Vec<u32> = (0..n)
            .filter(|&row| {
                sia_expr::eval_pred(&pred, &|c: &str| t.value(row as usize, c)) == Some(true)
            })
            .collect();
        // Relation row `p` is payload row `n - 1 - p` of a reversed copy.
        let rev: Vec<u32> = (0..n).rev().collect();
        let scratch = Scratch::default();
        let reversed = t.columns.iter().map(|c| c.gather(Some(&rev), &scratch));
        let reversed: Vec<Column> = reversed.collect();
        let whole: Vec<_> = t.columns.iter().map(ColRef::whole).collect();
        let through: Vec<_> = reversed
            .iter()
            .map(|col| ColRef {
                col,
                sel: Some(&rev),
            })
            .collect();
        // Column `k`, after the table's, is the relation row number.
        let k = Column::int((0..i64::from(n)).collect());
        let mut defs = t.schema.columns().to_vec();
        defs.push(ColumnDef::new("k", DataType::Integer));
        let with_k = Schema::new(defs);
        let p = compile_pred(&pred, &with_k).unwrap();
        let sparse = compile_pred(&parse_predicate("k - k / 3 * 3 <> 0").unwrap(), &with_k);
        let after_sparse = CPred::And(vec![sparse.unwrap(), p.clone()]);
        let thinned: Vec<u32> = reference.iter().copied().filter(|r| r % 3 != 0).collect();
        for (shape, cols) in [("unselected", whole), ("selected", through)] {
            let cols = [&cols[..], &[ColRef::whole(&k)]].concat();
            let rows = p.select(&cols, n, Vec::new());
            assert_eq!(rows, reference, "{sql} over {n} rows, {shape}");
            let rows = after_sparse.select(&cols, n, Vec::new());
            assert_eq!(rows, thinned, "{sql} over {n} rows, {shape}, sparse");
        }
        reference
    }

    #[test]
    fn filter_rows() {
        let t = table();
        assert_eq!(select("a > b", &t), vec![1, 2]);
    }

    #[test]
    fn arithmetic_and_doubles() {
        let t = table();
        assert_eq!(select("a + b * 2 >= 9 AND d < 11", &t), vec![1, 2]);
        // int ⊕ double widens; a constant may stand on either side.
        assert_eq!(select("a + d > 9.0", &t), vec![1, 2]);
        assert_eq!(select("4 < a", &t), vec![1, 2]);
        assert_eq!(select("1 < 2", &t), vec![0, 1, 2, 3]);
        assert_eq!(select("2 < 1 OR 1 / 0 = 1", &t), Vec::<u32>::new());
    }

    #[test]
    fn null_rejects_in_where() {
        let mut t = table();
        t.columns[0].validity = Some(vec![true, false, true, true]);
        // row 1 (a NULL) rejected even though stored payload is 5.
        assert_eq!(select("a > 0", &t), vec![0, 2]);
        // NOT NULL is NULL, and NULL OR TRUE is TRUE.
        assert_eq!(select("NOT (a > 0)", &t), vec![3]);
        assert_eq!(select("a > 0 OR b = 2", &t), vec![0, 1, 2, 3]);
        for len in LENGTHS {
            let rows = select("a > 0", &tiled(&t, len));
            assert!(rows.iter().all(|r| r % 4 != 1), "{len} rows");
        }
    }

    #[test]
    fn unknown_column_errors() {
        let t = table();
        assert!(compile_pred(&parse_predicate("zzz > 0").unwrap(), &t.schema).is_err());
        assert!(compile_pred(&parse_predicate("a > 0").unwrap(), &t.schema).is_ok());
    }

    #[test]
    fn division_semantics() {
        let t = table();
        // a / 0 is NULL → rejected.
        assert!(select("a / 0 > 0", &t).is_empty());
        assert!(select("d / 0 > 0 OR NOT (d / 0.0 > 0)", &t).is_empty());
        // Integer division truncates.
        assert_eq!(select("a / 2 = 2", &t), vec![1]); // 5/2 = 2
        assert_eq!(select("a / 2 = -1", &t), vec![3]); // -3/2 = -1
        for len in LENGTHS {
            let t = tiled(&t, len);
            select("a / (b - 2) > 0 OR a / 2 = 2", &t);
            select("b / (a - 5) <= 0", &t);
        }
    }

    #[test]
    fn saturating_arithmetic_and_nan() {
        let t = Table::new(
            schema(),
            vec![
                Column::int(vec![i64::MAX, i64::MIN, 3]),
                Column::int(vec![2, -1, 0]),
                Column::double(vec![f64::NAN, 1.0, f64::INFINITY]),
            ],
        );
        assert_eq!(select("a + b > 0", &t), vec![0, 2]);
        // i64::MIN * -1 saturates at i64::MAX; i64::MIN / -1 wraps.
        assert_eq!(select("a * b > 0 AND a - b < 0", &t), vec![1]);
        assert_eq!(select("a / b < 0", &t), vec![1]);
        // NaN compares NULL under every operator, negated or not.
        assert_eq!(select("d = d", &t), vec![1, 2]);
        assert_eq!(select("NOT (d <> d)", &t), vec![1, 2]);
        assert_eq!(select("d - d >= 0 OR a = 3", &t), vec![1, 2]);
    }

    #[test]
    fn matches_interpreted_eval() {
        // A predicate keeps the rows it is TRUE on and its negation the
        // rows it is FALSE on, so between them `select` is held to all
        // three truth values; row 1 of each tile (a - b = 3, d NULL) is
        // the NULL one.
        let mut base = table();
        base.columns[2].validity = Some(vec![true, false, true, true]);
        for len in LENGTHS {
            let t = tiled(&base, len);
            let kept = select("a - b < 3 OR d > 4.0", &t);
            let dropped = select("NOT (a - b < 3 OR d > 4.0)", &t);
            let nulls = (0..len).filter(|r| r % 4 == 1).count();
            assert_eq!(kept.len() + dropped.len() + nulls, len);
        }
    }

    /// Every operator over NULL, NaN, ±0.0, `x / 0` and saturation, under
    /// every candidate shape and on both sides of every chunk edge.
    #[test]
    fn every_candidate_shape_matches_the_reference() {
        let mut base = Table::new(
            schema(),
            vec![
                Column::int(vec![i64::MAX, 5, -3, 0, 7, i64::MIN, 2]),
                Column::int(vec![1, 2, 0, 0, -1, -1, 7]),
                Column::double(vec![f64::NAN, -0.0, 0.0, 4.5, f64::NAN, -2.5, 1.0]),
            ],
        );
        base.columns[0].validity = Some(vec![true, false, true, true, true, true, false]);
        base.columns[2].validity = Some(vec![true, true, true, true, true, false, true]);
        let mut preds = Vec::new();
        for op in ["<", "<=", ">", ">=", "=", "<>"] {
            for cmp in [
                "a {} b",
                "d {} 0.0",
                "d {} -0.0",
                "d {} d",
                "0 {} d",
                "a {} d",
            ] {
                preds.push(cmp.replace("{}", op));
            }
            preds.push(format!("NOT (d {op} 0.0) OR a {op} b"));
            preds.push(format!("a + 1 {op} a AND b - 1 {op} b"));
        }
        preds.extend(
            [
                "a / 0 = 0",
                "a / b >= 0",
                "d / 0 <= 0 OR d / 0.0 > 0",
                "d / b < 1",
                "a + 1 >= 9223372036854775807",
                "a * b < 0 AND a - b > -9223372036854775808",
                "NOT (a / 0 = 0)",
            ]
            .map(String::from),
        );
        for len in LENGTHS {
            let t = tiled(&base, len);
            for sql in &preds {
                select(sql, &t);
            }
        }
    }

    #[test]
    fn selection_vectors_are_read_through() {
        let t = table();
        let p = compile_pred(&parse_predicate("a > b AND d < 10").unwrap(), &t.schema).unwrap();
        // Relation rows 0..5 are payload rows 3, 1, 1, 2, 0 of `a` and `d`,
        // and rows 0, 0, 1, 2, 3 of `b` (all 2).
        let (ad, b) = ([3, 1, 1, 2, 0], [0, 0, 1, 2, 3]);
        let sels = [&ad[..], &b[..], &ad[..]];
        let cols: Vec<ColRef<'_>> = t
            .columns
            .iter()
            .zip(sels)
            .map(|(col, sel)| ColRef {
                col,
                sel: Some(sel),
            })
            .collect();
        assert_eq!(p.select(&cols, 5, Vec::new()), vec![1, 2]);
        // What the buffer held before is not part of the answer.
        assert_eq!(p.select(&cols, 5, vec![4, 0, 3, 9]), vec![1, 2]);
    }
}

#[cfg(test)]
mod batch_tests {
    use super::tests::{select, tiled, LENGTHS};
    use crate::table::{Column, Table};

    fn table() -> Table {
        Table::new(
            super::tests::schema(),
            vec![
                Column::int(vec![1, 5, 10, -3, 7]),
                Column::int(vec![2, 2, 2, 2, 7]),
                Column::double(vec![0.5, 4.5, 10.5, -2.5, 0.0]),
            ],
        )
    }

    #[test]
    fn vectorized_matches_rowwise() {
        let base = table();
        for len in LENGTHS {
            let t = tiled(&base, len);
            for sql in [
                "a > b",
                "a + b * 2 >= 9",
                "a - b < 3 OR a = 7",
                "NOT (a < b) AND a <> 10",
                "a > b AND d < 5.0",
                "a / 2 = 2",
                "NOT (a / (b - 2) = 0 OR d > a)",
                "3 >= b AND (a < 7 OR NOT (d * 2 > b))",
            ] {
                select(sql, &t);
            }
        }
    }

    #[test]
    fn vectorized_null_handling() {
        let mut base = table();
        base.columns[0].validity = Some(vec![true, false, true, true, false]);
        base.columns[2].validity = Some(vec![false, true, true, false, true]);
        for len in LENGTHS {
            let t = tiled(&base, len);
            for sql in [
                "a > 0",
                "a > b OR b = 2",
                "a = a",
                "NOT (a > d) OR d / 0 > 1",
                "a + d < 8 AND NOT (a = 10 AND d > 10)",
            ] {
                select(sql, &t);
            }
        }
    }
}
