//! Bulk bitwise expressions over named operands.
//!
//! Applications describe the computation they want (`fc_read` in §6.3
//! takes "the types of bitwise operations required") as an [`Expr`] —
//! AND/OR/NOT/XOR over operand vectors. The planner lowers a normalized
//! expression onto MWS commands; the same expression evaluates directly
//! on bit vectors for ground truth.

use std::collections::BTreeSet;
use std::fmt;

use fc_bits::BitVec;
use serde::{Deserialize, Serialize};

/// Identifies an operand vector (index into the caller's operand table).
pub type OperandId = usize;

/// A bulk bitwise expression.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Expr {
    /// An operand vector.
    Operand(OperandId),
    /// Bitwise complement.
    Not(Box<Expr>),
    /// Bitwise AND over at least one sub-expression ([`Expr::and`]
    /// returns a single sub-expression unchanged, so constructor-built
    /// trees always hold two or more here).
    And(Vec<Expr>),
    /// Bitwise OR over at least one sub-expression (same contract as
    /// [`Expr::And`]: [`Expr::or`] collapses the one-child case).
    Or(Vec<Expr>),
    /// Bitwise XOR of exactly two sub-expressions (the chip's XOR logic
    /// is binary, §6.1).
    Xor(Box<Expr>, Box<Expr>),
    /// Position-wise threshold vote: bit `i` of the result is 1 iff at
    /// least `k` of the children have bit `i` set (the mlsense dynamic-
    /// sensing primitive; MCFlash-style "≥ K of the activated cells").
    /// [`Expr::threshold`] collapses `k = 1` to OR and `k = n` to AND,
    /// so constructor-built trees hold `1 < k < n` here.
    Threshold {
        /// Minimum number of children that must be 1 at a bit position.
        k: usize,
        /// The voting sub-expressions (at least two).
        children: Vec<Expr>,
    },
    /// Position-wise majority vote over the children — equivalent to
    /// [`Expr::Threshold`] at `k = ⌈n/2⌉` (and normalized to exactly
    /// that threshold by [`Expr::to_nnf`]), kept first-class so HDC-style
    /// bundling reads as what it is.
    Majority(Vec<Expr>),
}

impl Expr {
    /// An operand leaf.
    pub fn var(id: OperandId) -> Self {
        Expr::Operand(id)
    }

    /// Bitwise NOT.
    #[allow(clippy::should_implement_trait)]
    pub fn not(e: Expr) -> Self {
        Expr::Not(Box::new(e))
    }

    /// Bitwise AND of the given sub-expressions. A single sub-expression
    /// is returned unchanged (AND of one thing is that thing).
    ///
    /// # Panics
    ///
    /// Panics if `es` is empty.
    pub fn and(es: Vec<Expr>) -> Self {
        assert!(!es.is_empty(), "AND needs at least one sub-expression");
        if es.len() == 1 {
            return es.into_iter().next().unwrap();
        }
        Expr::And(es)
    }

    /// Bitwise OR of the given sub-expressions. A single sub-expression
    /// is returned unchanged (OR of one thing is that thing).
    ///
    /// # Panics
    ///
    /// Panics if `es` is empty.
    pub fn or(es: Vec<Expr>) -> Self {
        assert!(!es.is_empty(), "OR needs at least one sub-expression");
        if es.len() == 1 {
            return es.into_iter().next().unwrap();
        }
        Expr::Or(es)
    }

    /// Position-wise threshold vote: at least `k` of `es` are 1. Follows
    /// the same degenerate-case contract as [`Expr::and`]/[`Expr::or`]:
    /// `k = 1` collapses to OR, `k = n` to AND (and a single
    /// sub-expression is therefore returned unchanged).
    ///
    /// # Panics
    ///
    /// Panics if `es` is empty, `k` is zero, or `k` exceeds the number of
    /// sub-expressions.
    pub fn threshold(k: usize, es: Vec<Expr>) -> Self {
        assert!(!es.is_empty(), "threshold needs at least one sub-expression");
        assert!(k >= 1, "threshold k must be at least 1");
        assert!(k <= es.len(), "threshold k={k} exceeds the {} sub-expressions", es.len());
        if k == 1 {
            Expr::or(es)
        } else if k == es.len() {
            Expr::and(es)
        } else {
            Expr::Threshold { k, children: es }
        }
    }

    /// Position-wise threshold over operand ids.
    ///
    /// # Panics
    ///
    /// Same contract as [`Expr::threshold`].
    pub fn threshold_vars<I: IntoIterator<Item = OperandId>>(k: usize, ids: I) -> Self {
        Expr::threshold(k, ids.into_iter().map(Expr::var).collect())
    }

    /// Position-wise majority vote (threshold at `⌈n/2⌉`, the HDC
    /// bundling operation). Degenerate cases collapse like
    /// [`Expr::threshold`]: one sub-expression is returned unchanged and
    /// two become an OR (`⌈2/2⌉ = 1`).
    ///
    /// # Panics
    ///
    /// Panics if `es` is empty.
    pub fn majority(es: Vec<Expr>) -> Self {
        assert!(!es.is_empty(), "majority needs at least one sub-expression");
        if es.len() <= 2 {
            return Expr::threshold(es.len().div_ceil(2), es);
        }
        Expr::Majority(es)
    }

    /// Position-wise majority over operand ids.
    ///
    /// # Panics
    ///
    /// Panics if `ids` is empty.
    pub fn majority_vars<I: IntoIterator<Item = OperandId>>(ids: I) -> Self {
        Expr::majority(ids.into_iter().map(Expr::var).collect())
    }

    /// Bitwise AND over operand ids (the common multi-operand case).
    pub fn and_vars<I: IntoIterator<Item = OperandId>>(ids: I) -> Self {
        Expr::and(ids.into_iter().map(Expr::var).collect())
    }

    /// Bitwise OR over operand ids.
    pub fn or_vars<I: IntoIterator<Item = OperandId>>(ids: I) -> Self {
        Expr::or(ids.into_iter().map(Expr::var).collect())
    }

    /// Bitwise XOR.
    pub fn xor(a: Expr, b: Expr) -> Self {
        Expr::Xor(Box::new(a), Box::new(b))
    }

    /// Bitwise NAND.
    pub fn nand(es: Vec<Expr>) -> Self {
        Expr::not(Expr::and(es))
    }

    /// Bitwise NOR.
    pub fn nor(es: Vec<Expr>) -> Self {
        Expr::not(Expr::or(es))
    }

    /// Bitwise XNOR (Eq. 2: `A XNOR B = (NOT A) XOR B`).
    pub fn xnor(a: Expr, b: Expr) -> Self {
        Expr::not(Expr::xor(a, b))
    }

    /// All operand ids referenced by the expression, ascending.
    pub fn operands(&self) -> BTreeSet<OperandId> {
        let mut out = BTreeSet::new();
        self.collect_operands(&mut out);
        out
    }

    fn collect_operands(&self, out: &mut BTreeSet<OperandId>) {
        match self {
            Expr::Operand(id) => {
                out.insert(*id);
            }
            Expr::Not(e) => e.collect_operands(out),
            Expr::And(es)
            | Expr::Or(es)
            | Expr::Threshold { children: es, .. }
            | Expr::Majority(es) => {
                for e in es {
                    e.collect_operands(out);
                }
            }
            Expr::Xor(a, b) => {
                a.collect_operands(out);
                b.collect_operands(out);
            }
        }
    }

    /// Evaluates the expression over bit vectors (ground truth).
    ///
    /// # Panics
    ///
    /// Panics if `lookup` returns vectors of different lengths.
    pub fn eval(&self, lookup: &impl Fn(OperandId) -> BitVec) -> BitVec {
        match self {
            Expr::Operand(id) => lookup(*id),
            Expr::Not(e) => e.eval(lookup).not(),
            Expr::And(es) => {
                let mut acc = es[0].eval(lookup);
                for e in &es[1..] {
                    acc.and_assign(&e.eval(lookup));
                }
                acc
            }
            Expr::Or(es) => {
                let mut acc = es[0].eval(lookup);
                for e in &es[1..] {
                    acc.or_assign(&e.eval(lookup));
                }
                acc
            }
            Expr::Xor(a, b) => a.eval(lookup).xor(&b.eval(lookup)),
            Expr::Threshold { k, children } => {
                threshold_eval(*k, children.iter().map(|c| c.eval(lookup)).collect())
            }
            Expr::Majority(children) => threshold_eval(
                children.len().div_ceil(2),
                children.iter().map(|c| c.eval(lookup)).collect(),
            ),
        }
    }

    /// Negation-normal form: `Not` pushed down to the leaves via
    /// De Morgan's laws, nested `And`/`Or` flattened, `Xor` rewritten
    /// with its complement identity (`NOT (a XOR b) = (NOT a) XOR b`).
    pub fn to_nnf(&self) -> Nnf {
        nnf_of(self, false)
    }

    /// Total number of operand *references* (a leaf used twice counts
    /// twice) — the paper's "number of operands" of a bulk operation.
    pub fn operand_refs(&self) -> usize {
        match self {
            Expr::Operand(_) => 1,
            Expr::Not(e) => e.operand_refs(),
            Expr::And(es)
            | Expr::Or(es)
            | Expr::Threshold { children: es, .. }
            | Expr::Majority(es) => es.iter().map(Expr::operand_refs).sum(),
            Expr::Xor(a, b) => a.operand_refs() + b.operand_refs(),
        }
    }
}

/// `a & b` builds a flattened n-ary [`Expr::And`] — together with
/// [`BitOr`](std::ops::BitOr), [`BitXor`](std::ops::BitXor) and
/// [`Not`](std::ops::Not) this gives expressions their natural spelling:
/// `(a & b) | !c`.
impl std::ops::BitAnd for Expr {
    type Output = Expr;

    fn bitand(self, rhs: Expr) -> Expr {
        let mut children = match self {
            Expr::And(es) => es,
            other => vec![other],
        };
        match rhs {
            Expr::And(es) => children.extend(es),
            other => children.push(other),
        }
        Expr::And(children)
    }
}

/// `a | b` builds a flattened n-ary [`Expr::Or`].
impl std::ops::BitOr for Expr {
    type Output = Expr;

    fn bitor(self, rhs: Expr) -> Expr {
        let mut children = match self {
            Expr::Or(es) => es,
            other => vec![other],
        };
        match rhs {
            Expr::Or(es) => children.extend(es),
            other => children.push(other),
        }
        Expr::Or(children)
    }
}

/// `a ^ b` is [`Expr::xor`] (binary, like the chip's XOR logic).
impl std::ops::BitXor for Expr {
    type Output = Expr;

    fn bitxor(self, rhs: Expr) -> Expr {
        Expr::xor(self, rhs)
    }
}

/// `!a` is [`Expr::not`], collapsing double negation.
impl std::ops::Not for Expr {
    type Output = Expr;

    fn not(self) -> Expr {
        match self {
            Expr::Not(inner) => *inner,
            other => Expr::Not(Box::new(other)),
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Operand(id) => write!(f, "v{id}"),
            Expr::Not(e) => write!(f, "!{e}"),
            Expr::And(es) => write_joined(f, es, " & "),
            Expr::Or(es) => write_joined(f, es, " | "),
            Expr::Xor(a, b) => write!(f, "({a} ^ {b})"),
            Expr::Threshold { k, children } => {
                write!(f, "TH{k}")?;
                write_joined(f, children, ", ")
            }
            Expr::Majority(children) => {
                write!(f, "MAJ")?;
                write_joined(f, children, ", ")
            }
        }
    }
}

/// Ground-truth per-position vote: bit `i` of the result is 1 iff at
/// least `k` of `votes` have bit `i` set. Deliberately scalar — the
/// word-parallel bit-sliced counter lives in `fc_nand::mlsense` and is
/// property-tested against exactly this.
fn threshold_eval(k: usize, votes: Vec<BitVec>) -> BitVec {
    BitVec::from_fn(votes[0].len(), |i| votes.iter().filter(|v| v.get(i)).count() >= k)
}

fn write_joined(f: &mut fmt::Formatter<'_>, es: &[Expr], sep: &str) -> fmt::Result {
    write!(f, "(")?;
    for (i, e) in es.iter().enumerate() {
        if i > 0 {
            write!(f, "{sep}")?;
        }
        write!(f, "{e}")?;
    }
    write!(f, ")")
}

/// A literal: an operand, possibly complemented. Ordered by operand,
/// then polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Literal {
    /// The operand.
    pub id: OperandId,
    /// Whether the literal is the operand's complement.
    pub negated: bool,
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.negated {
            write!(f, "!v{}", self.id)
        } else {
            write!(f, "v{}", self.id)
        }
    }
}

/// Negation-normal form with flattened n-ary connectives.
///
/// The derived total order (variant order first, then fields; child
/// lists element by element, then by length) is the order the batch
/// compiler's canonical form sorts children by.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Nnf {
    /// A (possibly negated) operand.
    Literal(Literal),
    /// AND over two or more children.
    And(Vec<Nnf>),
    /// OR over two or more children.
    Or(Vec<Nnf>),
    /// XOR of two children (negation hoisted onto the left child).
    Xor(Box<Nnf>, Box<Nnf>),
    /// Threshold vote over three or more children with `1 < k < n`
    /// (degenerate thresholds collapse to [`Nnf::Or`]/[`Nnf::And`]
    /// during normalization; `Expr::Majority` normalizes to a threshold
    /// at `k = ⌈n/2⌉`). Negation commutes through the vote as
    /// `NOT THkₙ(c…) = TH(n−k+1)ₙ(!c…)`, so no `Not` node is needed.
    Threshold {
        /// Minimum number of children that must be 1 at a bit position.
        k: usize,
        /// The voting children (multiplicity is semantic: a child
        /// appearing twice casts two votes, so no dedup happens here).
        children: Vec<Nnf>,
    },
}

impl Nnf {
    /// All operand ids referenced by the normalized expression, ascending.
    pub fn operands(&self) -> BTreeSet<OperandId> {
        let mut out = BTreeSet::new();
        self.collect_operands(&mut out);
        out
    }

    fn collect_operands(&self, out: &mut BTreeSet<OperandId>) {
        match self {
            Nnf::Literal(l) => {
                out.insert(l.id);
            }
            Nnf::And(cs) | Nnf::Or(cs) | Nnf::Threshold { children: cs, .. } => {
                for c in cs {
                    c.collect_operands(out);
                }
            }
            Nnf::Xor(a, b) => {
                a.collect_operands(out);
                b.collect_operands(out);
            }
        }
    }

    /// Evaluates the NNF (used by property tests to check normalization
    /// preserves semantics).
    pub fn eval(&self, lookup: &impl Fn(OperandId) -> BitVec) -> BitVec {
        match self {
            Nnf::Literal(l) => {
                let v = lookup(l.id);
                if l.negated {
                    v.not()
                } else {
                    v
                }
            }
            Nnf::And(cs) => {
                let mut acc = cs[0].eval(lookup);
                for c in &cs[1..] {
                    acc.and_assign(&c.eval(lookup));
                }
                acc
            }
            Nnf::Or(cs) => {
                let mut acc = cs[0].eval(lookup);
                for c in &cs[1..] {
                    acc.or_assign(&c.eval(lookup));
                }
                acc
            }
            Nnf::Xor(a, b) => a.eval(lookup).xor(&b.eval(lookup)),
            Nnf::Threshold { k, children } => {
                threshold_eval(*k, children.iter().map(|c| c.eval(lookup)).collect())
            }
        }
    }
}

fn nnf_of(e: &Expr, negate: bool) -> Nnf {
    match e {
        Expr::Operand(id) => Nnf::Literal(Literal { id: *id, negated: negate }),
        Expr::Not(inner) => nnf_of(inner, !negate),
        Expr::And(es) => {
            let children: Vec<Nnf> = es.iter().map(|c| nnf_of(c, negate)).collect();
            if negate {
                flatten_or(children)
            } else {
                flatten_and(children)
            }
        }
        Expr::Or(es) => {
            let children: Vec<Nnf> = es.iter().map(|c| nnf_of(c, negate)).collect();
            if negate {
                flatten_and(children)
            } else {
                flatten_or(children)
            }
        }
        Expr::Xor(a, b) => {
            // NOT (a ^ b) == (NOT a) ^ b: hoist negation onto `a`.
            let left = nnf_of(a, negate);
            let right = nnf_of(b, false);
            Nnf::Xor(Box::new(left), Box::new(right))
        }
        Expr::Threshold { k, children } => nnf_threshold(*k, children, negate),
        Expr::Majority(children) => nnf_threshold(children.len().div_ceil(2), children, negate),
    }
}

/// Normalizes a threshold node, pushing negation through the vote:
/// fewer than `k` ones means at least `n − k + 1` zeros, so
/// `NOT THkₙ(c…) = TH(n−k+1)ₙ(!c…)`. The (possibly flipped) threshold
/// then collapses to OR at `k = 1` and AND at `k = n`, keeping
/// [`Nnf::Threshold`] strictly between the degenerate forms.
fn nnf_threshold(k: usize, children: &[Expr], negate: bool) -> Nnf {
    let n = children.len();
    let k = if negate { n - k + 1 } else { k };
    let cs: Vec<Nnf> = children.iter().map(|c| nnf_of(c, negate)).collect();
    if k == 1 {
        flatten_or(cs)
    } else if k == n {
        flatten_and(cs)
    } else {
        Nnf::Threshold { k, children: cs }
    }
}

pub(crate) fn flatten_and(children: Vec<Nnf>) -> Nnf {
    let mut flat = Vec::with_capacity(children.len());
    for c in children {
        match c {
            Nnf::And(inner) => flat.extend(inner),
            other => flat.push(other),
        }
    }
    if flat.len() == 1 {
        flat.pop().unwrap()
    } else {
        Nnf::And(flat)
    }
}

pub(crate) fn flatten_or(children: Vec<Nnf>) -> Nnf {
    let mut flat = Vec::with_capacity(children.len());
    for c in children {
        match c {
            Nnf::Or(inner) => flat.extend(inner),
            other => flat.push(other),
        }
    }
    if flat.len() == 1 {
        flat.pop().unwrap()
    } else {
        Nnf::Or(flat)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn table(n: usize, bits: usize, seed: u64) -> Vec<BitVec> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| BitVec::random(bits, &mut rng)).collect()
    }

    #[test]
    fn eval_matches_bitvec_ops() {
        let t = table(4, 256, 1);
        let lookup = |i: usize| t[i].clone();
        let e = Expr::and(vec![Expr::var(0), Expr::or_vars([1, 2]), Expr::not(Expr::var(3))]);
        let expect = t[0].and(&t[1].or(&t[2])).and(&t[3].not());
        assert_eq!(e.eval(&lookup), expect);
    }

    #[test]
    fn nand_nor_xnor_definitions() {
        let t = table(2, 128, 2);
        let lookup = |i: usize| t[i].clone();
        assert_eq!(
            Expr::nand(vec![Expr::var(0), Expr::var(1)]).eval(&lookup),
            t[0].and(&t[1]).not()
        );
        assert_eq!(Expr::nor(vec![Expr::var(0), Expr::var(1)]).eval(&lookup), t[0].or(&t[1]).not());
        assert_eq!(Expr::xnor(Expr::var(0), Expr::var(1)).eval(&lookup), t[0].xor(&t[1]).not());
    }

    #[test]
    fn nnf_pushes_negation_to_leaves() {
        // NOT (a & (b | !c)) → !a | (!b & c)
        let e = Expr::not(Expr::and(vec![
            Expr::var(0),
            Expr::or(vec![Expr::var(1), Expr::not(Expr::var(2))]),
        ]));
        let nnf = e.to_nnf();
        match &nnf {
            Nnf::Or(cs) => {
                assert_eq!(cs.len(), 2);
                assert_eq!(cs[0], Nnf::Literal(Literal { id: 0, negated: true }));
                match &cs[1] {
                    Nnf::And(inner) => {
                        assert_eq!(inner[0], Nnf::Literal(Literal { id: 1, negated: true }));
                        assert_eq!(inner[1], Nnf::Literal(Literal { id: 2, negated: false }));
                    }
                    other => panic!("expected And, got {other:?}"),
                }
            }
            other => panic!("expected Or, got {other:?}"),
        }
    }

    #[test]
    fn nnf_flattens_nested_connectives() {
        let e = Expr::and(vec![
            Expr::and(vec![Expr::var(0), Expr::var(1)]),
            Expr::and(vec![Expr::var(2), Expr::and(vec![Expr::var(3), Expr::var(4)])]),
        ]);
        match e.to_nnf() {
            Nnf::And(cs) => assert_eq!(cs.len(), 5),
            other => panic!("expected flat And, got {other:?}"),
        }
    }

    #[test]
    fn nnf_preserves_semantics() {
        let t = table(5, 512, 3);
        let lookup = |i: usize| t[i].clone();
        let exprs = vec![
            Expr::not(Expr::and_vars([0, 1, 2])),
            Expr::nor(vec![Expr::and_vars([0, 1]), Expr::var(2), Expr::not(Expr::var(3))]),
            Expr::not(Expr::xor(Expr::var(0), Expr::and_vars([1, 2]))),
            Expr::and(vec![
                Expr::or(vec![Expr::var(0), Expr::nand(vec![Expr::var(1), Expr::var(2)])]),
                Expr::not(Expr::or_vars([3, 4])),
            ]),
        ];
        for e in exprs {
            assert_eq!(e.to_nnf().eval(&lookup), e.eval(&lookup), "expr {e}");
        }
    }

    #[test]
    fn operand_collection_and_counts() {
        let e = Expr::and(vec![Expr::var(3), Expr::or_vars([1, 3]), Expr::not(Expr::var(0))]);
        assert_eq!(e.operands().into_iter().collect::<Vec<_>>(), vec![0, 1, 3]);
        assert_eq!(e.operand_refs(), 4);
    }

    #[test]
    fn single_child_connectives_collapse() {
        assert_eq!(Expr::and(vec![Expr::var(7)]), Expr::var(7));
        assert_eq!(Expr::or(vec![Expr::var(7)]), Expr::var(7));
    }

    #[test]
    fn operator_overloads_build_flattened_trees() {
        let t = table(4, 128, 10);
        let lookup = |i: usize| t[i].clone();
        let e = (Expr::var(0) & Expr::var(1) & Expr::var(2)) | !Expr::var(3);
        assert_eq!(
            e,
            Expr::or(vec![Expr::and_vars([0, 1, 2]), Expr::not(Expr::var(3))]),
            "& and | flatten into the n-ary constructors"
        );
        assert_eq!(e.eval(&lookup), t[0].and(&t[1]).and(&t[2]).or(&t[3].not()));
        assert_eq!((Expr::var(0) ^ Expr::var(1)).eval(&lookup), t[0].xor(&t[1]));
        assert_eq!(!!Expr::var(2), Expr::var(2), "double negation collapses");
    }

    #[test]
    fn nnf_operand_collection() {
        let e = Expr::nor(vec![Expr::var(5), Expr::and_vars([1, 3])]);
        assert_eq!(e.to_nnf().operands().into_iter().collect::<Vec<_>>(), vec![1, 3, 5]);
    }

    #[test]
    fn display_round() {
        let e = Expr::or(vec![Expr::and_vars([0, 1]), Expr::not(Expr::var(2))]);
        assert_eq!(e.to_string(), "((v0 & v1) | !v2)");
        assert_eq!(Literal { id: 4, negated: true }.to_string(), "!v4");
        assert_eq!(Expr::threshold_vars(2, [0, 1, 2]).to_string(), "TH2(v0, v1, v2)");
        assert_eq!(Expr::majority_vars([0, 1, 2]).to_string(), "MAJ(v0, v1, v2)");
    }

    #[test]
    fn threshold_eval_counts_votes() {
        let t = table(5, 512, 20);
        let lookup = |i: usize| t[i].clone();
        for k in 1..=5 {
            let e = Expr::threshold_vars(k, 0..5);
            let got = e.eval(&lookup);
            for i in 0..512 {
                let votes = (0..5).filter(|&j| t[j].get(i)).count();
                assert_eq!(got.get(i), votes >= k, "k={k} bit {i} ({votes} votes)");
            }
        }
    }

    #[test]
    fn majority_is_threshold_at_half() {
        let t = table(9, 256, 21);
        let lookup = |i: usize| t[i].clone();
        let maj = Expr::majority_vars(0..9);
        assert_eq!(maj.eval(&lookup), Expr::threshold_vars(5, 0..9).eval(&lookup));
        assert_eq!(maj.to_nnf(), Expr::threshold_vars(5, 0..9).to_nnf());
    }

    #[test]
    fn threshold_degenerate_cases_collapse() {
        assert_eq!(Expr::threshold_vars(1, [0, 1, 2]), Expr::or_vars([0, 1, 2]));
        assert_eq!(Expr::threshold_vars(3, [0, 1, 2]), Expr::and_vars([0, 1, 2]));
        assert_eq!(Expr::threshold_vars(1, [4]), Expr::var(4));
        assert_eq!(Expr::majority_vars([4]), Expr::var(4));
        assert_eq!(Expr::majority_vars([0, 1]), Expr::or_vars([0, 1]));
    }

    #[test]
    fn threshold_nnf_duality_preserves_semantics() {
        let t = table(7, 512, 22);
        let lookup = |i: usize| t[i].clone();
        let exprs = vec![
            Expr::not(Expr::threshold_vars(3, 0..7)),
            Expr::not(Expr::majority_vars(0..5)),
            Expr::threshold(2, vec![Expr::not(Expr::var(0)), Expr::and_vars([1, 2]), Expr::var(3)]),
            Expr::not(Expr::threshold(
                2,
                vec![Expr::var(0), Expr::not(Expr::majority_vars(1..6)), Expr::var(6)],
            )),
            // NOT TH2₃ flips to TH2₃ over negated children (n−k+1 = 2).
            Expr::nor(vec![Expr::threshold_vars(2, 0..3), Expr::var(4)]),
        ];
        for e in exprs {
            assert_eq!(e.to_nnf().eval(&lookup), e.eval(&lookup), "expr {e}");
        }
    }

    #[test]
    fn threshold_nnf_duality_flips_k() {
        // NOT TH4₅ = TH2₅ over negated literals.
        match Expr::not(Expr::threshold_vars(4, 0..5)).to_nnf() {
            Nnf::Threshold { k, children } => {
                assert_eq!(k, 2);
                assert_eq!(children.len(), 5);
                assert!(children
                    .iter()
                    .all(|c| matches!(c, Nnf::Literal(Literal { negated: true, .. }))));
            }
            other => panic!("expected Threshold, got {other:?}"),
        }
        // A hand-built degenerate threshold (bypassing the constructor)
        // still collapses during normalization: NOT TH1₃ flips to
        // k' = n − 1 + 1 = 3 = n, i.e. AND over negated literals.
        let raw = Expr::Not(Box::new(Expr::Threshold {
            k: 1,
            children: vec![Expr::var(0), Expr::var(1), Expr::var(2)],
        }));
        match raw.to_nnf() {
            Nnf::And(cs) => assert_eq!(cs.len(), 3),
            other => panic!("expected And, got {other:?}"),
        }
    }

    #[test]
    fn threshold_multiplicity_counts_votes() {
        // The same operand twice casts two votes: TH2(v0, v0, v1) = v0 | (v0 & v1) = v0.
        let t = table(2, 256, 23);
        let lookup = |i: usize| t[i].clone();
        let e = Expr::threshold(2, vec![Expr::var(0), Expr::var(0), Expr::var(1)]);
        assert_eq!(e.eval(&lookup), t[0]);
        assert_eq!(e.to_nnf().eval(&lookup), t[0]);
    }

    #[test]
    fn threshold_operand_collection() {
        let e = Expr::threshold(2, vec![Expr::var(5), Expr::not(Expr::var(1)), Expr::var(3)]);
        assert_eq!(e.operands().into_iter().collect::<Vec<_>>(), vec![1, 3, 5]);
        assert_eq!(e.operand_refs(), 3);
        assert_eq!(e.to_nnf().operands().into_iter().collect::<Vec<_>>(), vec![1, 3, 5]);
        let m = Expr::majority_vars([0, 2, 2]);
        assert_eq!(m.operands().into_iter().collect::<Vec<_>>(), vec![0, 2]);
        assert_eq!(m.operand_refs(), 3);
    }

    #[test]
    #[should_panic(expected = "AND needs at least one")]
    fn empty_and_panics() {
        let _ = Expr::and(vec![]);
    }

    #[test]
    #[should_panic(expected = "OR needs at least one")]
    fn empty_or_panics() {
        let _ = Expr::or(vec![]);
    }

    #[test]
    #[should_panic(expected = "threshold needs at least one")]
    fn empty_threshold_panics() {
        let _ = Expr::threshold(1, vec![]);
    }

    #[test]
    #[should_panic(expected = "k must be at least 1")]
    fn zero_k_threshold_panics() {
        let _ = Expr::threshold_vars(0, [0, 1]);
    }

    #[test]
    #[should_panic(expected = "exceeds the 2 sub-expressions")]
    fn oversized_k_threshold_panics() {
        let _ = Expr::threshold_vars(3, [0, 1]);
    }

    #[test]
    #[should_panic(expected = "majority needs at least one")]
    fn empty_majority_panics() {
        let _ = Expr::majority(vec![]);
    }
}
