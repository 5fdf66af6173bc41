//! Congruence closure over ground terms (EUF), with O(1) backtracking.
//!
//! Implements the classic Nelson–Oppen congruence-closure algorithm over
//! [`Term`]s: variables and literals are constants, applications are
//! congruence nodes. Distinct [`Value`] literals are inherently disequal, so
//! merging two classes with different literal representatives is a
//! contradiction.
//!
//! The closure implements [`EqOracle`], which lets the normalizing rewriter
//! consult learned (dis)equalities — the loop that makes the abstraction
//! rewrite rules context-sensitive (e.g. `MapPut` reordering under a learned
//! key disequality).
//!
//! # Layout
//!
//! A node is an index into flat per-node vectors: its function symbol
//! (none for a variable or literal), a range of its child node ids in one
//! shared `Vec<usize>`, its use list and its class literal. Variables and
//! literals intern through a hash map keyed on the term. An application
//! interns bottom-up — its arguments first, left to right, then the node
//! itself — and is looked up by function symbol and child *node* ids. The
//! signature table that finds congruences is keyed the same way on child
//! *class* ids: each entry stores the classes it was computed over in a
//! second shared `Vec<usize>`. Both application tables map a 64-bit hash
//! of the key to the newest node (or signature entry) with that hash, and
//! every node and entry links to the next older one with the same hash.
//! So a lookup compares symbols and id slices, never term trees, and no
//! entry allocates a key of its own — the signature table over node ids
//! of Nieuwenhuis and Oliveras ("Fast congruence closure and extensions",
//! 2007).
//!
//! # Backtracking
//!
//! Incremental solver sessions interleave long-lived fact scopes with
//! goal-local assertions, so the closure is **backtrackable**: every
//! in-place mutation (union, use-list change, literal move) is recorded on
//! an undo trail, while fresh nodes, signature entries and disequalities
//! are only ever appended. [`Congruence::snapshot`] captures the trail
//! position and the lengths, and [`Congruence::rollback_to`] undoes the
//! trail in reverse and truncates the suffixes, unlinking each dropped
//! node or entry from the head of its hash chain (chains grow at the
//! head, so they shrink last-in first-out) — no cloning, no re-interning,
//! O(work since the snapshot). Union-find runs union-by-rank *without*
//! path compression precisely so unions undo in O(1) (see
//! `union_find.rs`); roots, and therefore [`Congruence::class_id`]
//! values, are unaffected.

use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

use commcsl_pure::rewrite::{decide_eq_syntactic, EqOracle};
use commcsl_pure::{Func, Term, Value};

use crate::union_find::{UnionFind, UnionUndo};

/// The end of a hash chain.
const NIL: usize = usize::MAX;

/// A word-at-a-time multiply-rotate hasher (the FxHash scheme) for the
/// application tables, whose keys are the 64-bit hashes [`key_hash`]
/// computes with it from the closure's own symbols and ids. The tables
/// are only probed, never iterated, so no hash value reaches an answer.
#[derive(Default)]
struct WordHasher(u64);

impl WordHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.add(u64::from_le_bytes(word.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut word = [0; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        // The multiply mixes upward; bring the well-mixed high bits down
        // to where the table picks its bucket.
        self.0.rotate_left(26)
    }
}

type WordMap = HashMap<u64, usize, BuildHasherDefault<WordHasher>>;

/// The hash of an application key: a function symbol over child node
/// ids (the intern table) or child class ids (the signature table).
fn key_hash(f: &Func, ids: &[usize]) -> u64 {
    let mut hasher = WordHasher::default();
    f.hash(&mut hasher);
    for &id in ids {
        hasher.add(id as u64);
    }
    hasher.finish()
}

/// Removes `id`, the newest entry of `hash`'s chain, from a table whose
/// chains grow at the head; `next` is the entry it links to.
fn unlink(table: &mut WordMap, hash: u64, id: usize, next: usize) {
    let head = if next == NIL {
        table.remove(&hash)
    } else {
        table.insert(hash, next)
    };
    debug_assert_eq!(head, Some(id), "hash chains shrink last-in first-out");
}

/// One undoable in-place mutation.
#[derive(Debug, Clone)]
enum TrailOp {
    /// A class union (undone via the union-find's own record).
    Union(UnionUndo),
    /// `uses[node]` gained one entry (a fresh application child-link).
    UsesPush(usize),
    /// All `count` use-entries of `loser` moved to the tail of
    /// `winner`'s list during a merge.
    UsesMove {
        winner: usize,
        loser: usize,
        count: usize,
    },
    /// The class literal moved from `loser` to `winner` during a merge.
    LiteralMove { winner: usize, loser: usize },
}

/// A signature-table entry: the signature of `node` over the classes
/// its children had when the entry was made.
#[derive(Debug, Clone, Copy)]
struct SigEntry {
    node: usize,
    hash: u64,
    /// Where the entry's child classes start in `Inner::sig_classes`
    /// (one per child of `node`).
    classes: usize,
    /// The next older entry with the same hash, or [`NIL`].
    next: usize,
}

#[derive(Debug, Default, Clone)]
struct Inner {
    uf: UnionFind,
    // Per node, indexed by node id.
    /// The function symbol of an application; `None` for a variable or
    /// literal.
    func: Vec<Option<Func>>,
    /// The node's children: `child_ids[args[id].0..args[id].1]`.
    args: Vec<(usize, usize)>,
    /// An application's key hash and the next older application with the
    /// same hash (or [`NIL`]); unused for leaves.
    app_link: Vec<(u64, usize)>,
    /// Application nodes that have the node as a child.
    uses: Vec<Vec<usize>>,
    /// Literal representative per class root (moved on union).
    literal: Vec<Option<Value>>,
    /// The child node ids of every application, in creation order.
    child_ids: Vec<usize>,
    /// Variables and literals, by term. The names come from the programs
    /// being verified, so this table keeps the default hasher, which
    /// resists keys crafted to collide.
    leaves: HashMap<Term, usize>,
    /// The interned leaves in creation order (rollback removes a suffix).
    leaf_order: Vec<Term>,
    /// Applications: key hash over child node ids → newest such node.
    apps: WordMap,
    /// Signature table: key hash over child class ids → newest entry.
    /// Insert-only while live — stale entries are unreachable, never
    /// overwritten — so rollback removes a suffix of `sig_entries`.
    sigs: WordMap,
    sig_entries: Vec<SigEntry>,
    /// The child classes of every signature entry, in entry order.
    sig_classes: Vec<usize>,
    /// Child ids of the applications being interned: each level of the
    /// recursion pushes its arguments' ids above its callers'.
    arg_stack: Vec<usize>,
    /// Class pairs the running merge still has to join.
    merge_queue: Vec<(usize, usize)>,
    diseqs: Vec<(usize, usize)>,
    trail: Vec<TrailOp>,
    contradiction: bool,
    /// Bumped on every *semantic* mutation: a class union, a fresh
    /// disequality, or a derived contradiction. Interning alone does not
    /// change what [`Congruence::decide`] answers, but interning can
    /// trigger congruence unions, which do count.
    version: u64,
}

/// A point-in-time marker for [`Congruence::rollback_to`].
///
/// Only meaningful for the closure that produced it, and only while no
/// *earlier* snapshot has been rolled back past; the incremental session
/// uses strictly nested snapshot/rollback pairs.
#[derive(Debug, Clone, Copy)]
pub struct CongruenceSnapshot {
    nodes: usize,
    leaves: usize,
    sigs: usize,
    diseqs: usize,
    trail: usize,
    version: u64,
    contradiction: bool,
}

/// A congruence-closure context.
///
/// # Example
///
/// ```
/// use commcsl_pure::Term;
/// use commcsl_smt::congruence::Congruence;
///
/// let cc = Congruence::new();
/// let snap = cc.snapshot();
/// cc.assert_eq(&Term::var("x"), &Term::var("y"));
/// let fx = Term::app(commcsl_pure::Func::SeqLen, [Term::var("x")]);
/// let fy = Term::app(commcsl_pure::Func::SeqLen, [Term::var("y")]);
/// assert_eq!(cc.decide(&fx, &fy), Some(true));
/// cc.rollback_to(&snap);
/// assert_eq!(cc.decide(&fx, &fy), None);
/// ```
#[derive(Debug, Default, Clone)]
pub struct Congruence {
    inner: RefCell<Inner>,
}

impl Congruence {
    /// Creates an empty context.
    pub fn new() -> Self {
        Congruence::default()
    }

    /// Asserts `a = b`.
    pub fn assert_eq(&self, a: &Term, b: &Term) {
        let mut inner = self.inner.borrow_mut();
        let (ia, ib) = (inner.intern_term(a), inner.intern_term(b));
        inner.merge(ia, ib);
        inner.check_diseqs();
    }

    /// Asserts `a ≠ b`. Re-asserting a disequality already separating the
    /// same pair of classes is a no-op (and does not bump the mutation
    /// [`Congruence::version`]).
    pub fn assert_neq(&self, a: &Term, b: &Term) {
        let mut inner = self.inner.borrow_mut();
        let (ia, ib) = (inner.intern_term(a), inner.intern_term(b));
        let (ra, rb) = (inner.uf.find(ia), inner.uf.find(ib));
        if inner.separated(ra, rb) {
            return;
        }
        inner.diseqs.push((ia, ib));
        inner.version += 1;
        inner.check_diseqs();
    }

    /// Returns `true` when the asserted facts are contradictory.
    pub fn contradictory(&self) -> bool {
        self.inner.borrow().contradiction
    }

    /// A counter bumped on every semantic mutation (union, fresh
    /// disequality, contradiction). Two states with the same version that
    /// evolved from a common ancestor answer every [`Congruence::decide`]
    /// query identically, which is what lets the incremental solver
    /// sessions detect a quiescent normalization round and skip the
    /// remaining ones exactly.
    pub fn version(&self) -> u64 {
        self.inner.borrow().version
    }

    /// Captures the current state for a later [`Congruence::rollback_to`].
    pub fn snapshot(&self) -> CongruenceSnapshot {
        let inner = self.inner.borrow();
        CongruenceSnapshot {
            nodes: inner.func.len(),
            leaves: inner.leaf_order.len(),
            sigs: inner.sig_entries.len(),
            diseqs: inner.diseqs.len(),
            trail: inner.trail.len(),
            version: inner.version,
            contradiction: inner.contradiction,
        }
    }

    /// Restores the closure to the exact state captured by `snap`:
    /// trailing mutations are undone in reverse, fresh nodes, signature
    /// entries and disequalities are discarded. O(work since the
    /// snapshot), not O(closure size).
    pub fn rollback_to(&self, snap: &CongruenceSnapshot) {
        self.inner.borrow_mut().rollback_to(snap);
    }

    /// Decides `a = b` from the closure: `Some(true)` when congruent,
    /// `Some(false)` when separated by a disequality or distinct literals,
    /// `None` otherwise.
    pub fn decide(&self, a: &Term, b: &Term) -> Option<bool> {
        if let Some(ans) = decide_eq_syntactic(a, b) {
            return Some(ans);
        }
        let mut inner = self.inner.borrow_mut();
        let (ia, ib) = (inner.intern_term(a), inner.intern_term(b));
        let (ra, rb) = (inner.uf.find(ia), inner.uf.find(ib));
        if ra == rb {
            return Some(true);
        }
        match (&inner.literal[ra], &inner.literal[rb]) {
            (Some(x), Some(y)) if x != y => return Some(false),
            _ => {}
        }
        if inner.separated(ra, rb) {
            return Some(false);
        }
        None
    }

    /// Returns the literal value of the class of `t`, if one is known.
    pub fn literal_of(&self, t: &Term) -> Option<Value> {
        let mut inner = self.inner.borrow_mut();
        let id = inner.intern_term(t);
        let root = inner.uf.find(id);
        inner.literal[root].clone()
    }

    /// Returns a stable id for the congruence class of `t` at the time of the
    /// call (classes may merge later). Used by the LIA layer to identify
    /// arithmetic atoms up to congruence.
    pub fn class_id(&self, t: &Term) -> usize {
        let mut inner = self.inner.borrow_mut();
        let id = inner.intern_term(t);
        inner.uf.find(id)
    }
}

impl EqOracle for Congruence {
    fn decide_eq(&self, a: &Term, b: &Term) -> Option<bool> {
        self.decide(a, b)
    }
}

impl Inner {
    /// `true` when an asserted disequality separates the two class roots
    /// (in either orientation). Shared by `assert_neq`'s dedup (which
    /// suppresses the version bump the quiescence skip relies on) and
    /// `decide`'s separation answer, so the two can never drift apart.
    fn separated(&self, ra: usize, rb: usize) -> bool {
        self.diseqs.iter().any(|&(x, y)| {
            let (rx, ry) = (self.uf.find(x), self.uf.find(y));
            (rx == ra && ry == rb) || (rx == rb && ry == ra)
        })
    }

    fn rollback_to(&mut self, snap: &CongruenceSnapshot) {
        while self.trail.len() > snap.trail {
            match self.trail.pop().expect("trail length checked") {
                TrailOp::Union(undo) => self.uf.undo_union(undo),
                TrailOp::UsesPush(node) => {
                    self.uses[node].pop();
                }
                TrailOp::UsesMove {
                    winner,
                    loser,
                    count,
                } => {
                    // The loser kept its emptied list's allocation.
                    let at = self.uses[winner].len() - count;
                    let mut moved = std::mem::take(&mut self.uses[loser]);
                    debug_assert!(moved.is_empty());
                    moved.extend_from_slice(&self.uses[winner][at..]);
                    self.uses[winner].truncate(at);
                    self.uses[loser] = moved;
                }
                TrailOp::LiteralMove { winner, loser } => {
                    let value = self.literal[winner].take();
                    self.literal[loser] = value;
                }
            }
        }
        if let Some(first) = self.sig_entries.get(snap.sigs) {
            self.sig_classes.truncate(first.classes);
        }
        while self.sig_entries.len() > snap.sigs {
            let entry = self.sig_entries.pop().expect("length checked");
            unlink(
                &mut self.sigs,
                entry.hash,
                self.sig_entries.len(),
                entry.next,
            );
        }
        for node in (snap.nodes..self.func.len()).rev() {
            if self.func[node].is_some() {
                let (hash, next) = self.app_link[node];
                unlink(&mut self.apps, hash, node, next);
            }
        }
        while self.leaf_order.len() > snap.leaves {
            let leaf = self.leaf_order.pop().expect("length checked");
            self.leaves.remove(&leaf);
        }
        if let Some(&(start, _)) = self.args.get(snap.nodes) {
            self.child_ids.truncate(start);
        }
        self.func.truncate(snap.nodes);
        self.args.truncate(snap.nodes);
        self.app_link.truncate(snap.nodes);
        self.uses.truncate(snap.nodes);
        self.literal.truncate(snap.nodes);
        self.uf.truncate(snap.nodes);
        self.diseqs.truncate(snap.diseqs);
        self.version = snap.version;
        self.contradiction = snap.contradiction;
    }

    /// Interns `t` bottom-up: its arguments left to right, then the node.
    fn intern_term(&mut self, t: &Term) -> usize {
        let Term::App(f, args) = t else {
            return self.intern_leaf(t);
        };
        let base = self.arg_stack.len();
        for arg in args.iter() {
            let id = self.intern_term(arg);
            self.arg_stack.push(id);
        }
        let hash = key_hash(f, &self.arg_stack[base..]);
        if let Some(id) = self.find_app(f, &self.arg_stack[base..], hash) {
            self.arg_stack.truncate(base);
            return id;
        }
        let start = self.child_ids.len();
        self.child_ids.extend_from_slice(&self.arg_stack[base..]);
        self.arg_stack.truncate(base);
        let end = self.child_ids.len();
        let next = self.apps.insert(hash, self.func.len()).unwrap_or(NIL);
        let id = self.push_node(Some(f.clone()), (start, end), (hash, next), None);
        // Congruence check for fresh applications.
        for at in start..end {
            let rc = self.uf.find(self.child_ids[at]);
            self.uses[rc].push(id);
            self.trail.push(TrailOp::UsesPush(rc));
        }
        if let Some(existing) = self.signature(id) {
            self.merge(existing, id);
        }
        id
    }

    fn intern_leaf(&mut self, t: &Term) -> usize {
        if let Some(&id) = self.leaves.get(t) {
            return id;
        }
        let literal = match t {
            Term::Lit(v) => Some(v.clone()),
            _ => None,
        };
        let at = self.child_ids.len();
        let id = self.push_node(None, (at, at), (0, NIL), literal);
        self.leaves.insert(t.clone(), id);
        self.leaf_order.push(t.clone());
        id
    }

    /// The application of `f` to exactly the nodes `children`, if interned.
    fn find_app(&self, f: &Func, children: &[usize], hash: u64) -> Option<usize> {
        let mut node = *self.apps.get(&hash)?;
        while node != NIL {
            let (start, end) = self.args[node];
            if self.func[node].as_ref() == Some(f) && self.child_ids[start..end] == *children {
                return Some(node);
            }
            node = self.app_link[node].1;
        }
        None
    }

    fn push_node(
        &mut self,
        func: Option<Func>,
        args: (usize, usize),
        app_link: (u64, usize),
        literal: Option<Value>,
    ) -> usize {
        let id = self.uf.push();
        debug_assert_eq!(id, self.func.len());
        self.func.push(func);
        self.args.push(args);
        self.app_link.push(app_link);
        self.uses.push(Vec::new());
        self.literal.push(literal);
        id
    }

    /// Looks up the signature of application `node` — its symbol over
    /// its children's current classes. Returns the node of the entry that
    /// already holds it, or records an entry for `node` and returns
    /// `None`.
    fn signature(&mut self, node: usize) -> Option<usize> {
        let (start, end) = self.args[node];
        let classes = self.sig_classes.len();
        for at in start..end {
            let class = self.uf.find(self.child_ids[at]);
            self.sig_classes.push(class);
        }
        let f = self.func[node]
            .as_ref()
            .expect("only applications have signatures");
        let hash = key_hash(f, &self.sig_classes[classes..]);
        let mut entry = self.sigs.get(&hash).copied().unwrap_or(NIL);
        while entry != NIL {
            let e = self.sig_entries[entry];
            let (s, t) = self.args[e.node];
            if self.func[e.node].as_ref() == Some(f)
                && self.sig_classes[e.classes..e.classes + (t - s)] == self.sig_classes[classes..]
            {
                self.sig_classes.truncate(classes);
                return Some(e.node);
            }
            entry = e.next;
        }
        let next = self
            .sigs
            .insert(hash, self.sig_entries.len())
            .unwrap_or(NIL);
        self.sig_entries.push(SigEntry {
            node,
            hash,
            classes,
            next,
        });
        None
    }

    fn merge(&mut self, a: usize, b: usize) {
        self.merge_queue.push((a, b));
        while let Some((x, y)) = self.merge_queue.pop() {
            let (rx, ry) = (self.uf.find(x), self.uf.find(y));
            if rx == ry {
                continue;
            }
            // Literal clash ⇒ contradiction.
            if let (Some(lx), Some(ly)) = (&self.literal[rx], &self.literal[ry]) {
                if lx != ly {
                    self.contradiction = true;
                    self.version += 1;
                    self.merge_queue.clear();
                    return;
                }
            }
            let undo = match self.uf.union(rx, ry) {
                Some(undo) => undo,
                None => continue,
            };
            let winner = undo.winner;
            let loser = undo.loser;
            self.trail.push(TrailOp::Union(undo));
            self.version += 1;
            if self.literal[winner].is_none() && self.literal[loser].is_some() {
                self.literal[winner] = self.literal[loser].take();
                self.trail.push(TrailOp::LiteralMove { winner, loser });
            }
            // Re-canonicalize parents of the losing class.
            let mut moved = std::mem::take(&mut self.uses[loser]);
            for &parent in &moved {
                if let Some(existing) = self.signature(parent) {
                    if self.uf.find(existing) != self.uf.find(parent) {
                        self.merge_queue.push((existing, parent));
                    }
                }
            }
            if !moved.is_empty() {
                self.uses[winner].extend_from_slice(&moved);
                self.trail.push(TrailOp::UsesMove {
                    winner,
                    loser,
                    count: moved.len(),
                });
            }
            // Keep the allocation for the list's restore on rollback.
            moved.clear();
            self.uses[loser] = moved;
        }
        self.check_diseqs();
    }

    fn check_diseqs(&mut self) {
        if self.contradiction {
            return;
        }
        let clash = self
            .diseqs
            .iter()
            .any(|&(x, y)| self.uf.find(x) == self.uf.find(y));
        if clash {
            self.contradiction = true;
            self.version += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(name: &str, args: impl IntoIterator<Item = Term>) -> Term {
        Term::app(Func::Uninterpreted(name.into()), args)
    }

    #[test]
    fn congruence_propagates_through_applications() {
        let cc = Congruence::new();
        cc.assert_eq(&Term::var("a"), &Term::var("b"));
        assert_eq!(
            cc.decide(&f("g", [Term::var("a")]), &f("g", [Term::var("b")])),
            Some(true)
        );
    }

    #[test]
    fn nested_congruence() {
        let cc = Congruence::new();
        cc.assert_eq(&Term::var("a"), &Term::var("b"));
        let gga = f("g", [f("g", [Term::var("a")])]);
        let ggb = f("g", [f("g", [Term::var("b")])]);
        assert_eq!(cc.decide(&gga, &ggb), Some(true));
    }

    #[test]
    fn transitivity() {
        let cc = Congruence::new();
        cc.assert_eq(&Term::var("a"), &Term::var("b"));
        cc.assert_eq(&Term::var("b"), &Term::var("c"));
        assert_eq!(cc.decide(&Term::var("a"), &Term::var("c")), Some(true));
    }

    #[test]
    fn disequality_detects_contradiction() {
        let cc = Congruence::new();
        cc.assert_neq(&Term::var("a"), &Term::var("b"));
        assert!(!cc.contradictory());
        cc.assert_eq(&Term::var("a"), &Term::var("b"));
        assert!(cc.contradictory());
    }

    #[test]
    fn distinct_literals_clash() {
        let cc = Congruence::new();
        cc.assert_eq(&Term::var("a"), &Term::int(1));
        cc.assert_eq(&Term::var("b"), &Term::int(2));
        assert_eq!(cc.decide(&Term::var("a"), &Term::var("b")), Some(false));
        cc.assert_eq(&Term::var("a"), &Term::var("b"));
        assert!(cc.contradictory());
    }

    #[test]
    fn congruence_induced_disequality_of_functions() {
        // a ≠ b does NOT let us conclude g(a) ≠ g(b).
        let cc = Congruence::new();
        cc.assert_neq(&Term::var("a"), &Term::var("b"));
        assert_eq!(
            cc.decide(&f("g", [Term::var("a")]), &f("g", [Term::var("b")])),
            None
        );
    }

    #[test]
    fn merge_discovered_by_later_equation() {
        // Intern g(a), g(b) first, merge a=b afterwards: the use lists must
        // propagate the congruence.
        let cc = Congruence::new();
        let (ga, gb) = (f("g", [Term::var("a")]), f("g", [Term::var("b")]));
        assert_eq!(cc.decide(&ga, &gb), None);
        cc.assert_eq(&Term::var("a"), &Term::var("b"));
        assert_eq!(cc.decide(&ga, &gb), Some(true));
    }

    #[test]
    fn literal_of_reports_class_literal() {
        let cc = Congruence::new();
        cc.assert_eq(&Term::var("x"), &Term::int(5));
        assert_eq!(cc.literal_of(&Term::var("x")), Some(Value::Int(5)));
        assert_eq!(cc.literal_of(&Term::var("y")), None);
    }

    #[test]
    fn functions_of_disequal_literals() {
        let cc = Congruence::new();
        // g(1) and g(2) are unknown, but 1 ≠ 2 is decided.
        assert_eq!(cc.decide(&Term::int(1), &Term::int(2)), Some(false));
        assert_eq!(
            cc.decide(&f("g", [Term::int(1)]), &f("g", [Term::int(2)])),
            None
        );
    }

    #[test]
    fn rollback_restores_everything() {
        let cc = Congruence::new();
        cc.assert_eq(&Term::var("a"), &Term::var("b"));
        let (ga, gb) = (f("g", [Term::var("a")]), f("g", [Term::var("b")]));
        assert_eq!(cc.decide(&ga, &gb), Some(true));
        let version_before = cc.version();

        let snap = cc.snapshot();
        // Goal-local work: new terms, unions, a literal pin, a diseq, and
        // finally a contradiction.
        cc.assert_eq(&Term::var("c"), &Term::int(7));
        cc.assert_neq(&Term::var("c"), &Term::var("d"));
        cc.assert_eq(&f("h", [Term::var("a")]), &Term::var("d"));
        assert_eq!(cc.decide(&Term::var("c"), &Term::var("d")), Some(false));
        assert_eq!(cc.literal_of(&Term::var("c")), Some(Value::Int(7)));
        cc.assert_eq(&Term::var("c"), &Term::var("d"));
        assert!(cc.contradictory());

        cc.rollback_to(&snap);
        assert!(!cc.contradictory());
        assert_eq!(cc.version(), version_before);
        // Pre-snapshot state survives...
        assert_eq!(cc.decide(&ga, &gb), Some(true));
        // ...and post-snapshot facts are gone.
        assert_eq!(cc.decide(&Term::var("c"), &Term::var("d")), None);
        assert_eq!(cc.literal_of(&Term::var("c")), None);

        // The closure is fully usable after rollback, including re-learning
        // the same facts.
        cc.assert_eq(&Term::var("c"), &Term::int(7));
        assert_eq!(cc.literal_of(&Term::var("c")), Some(Value::Int(7)));
    }

    #[test]
    fn nested_snapshots_roll_back_in_order() {
        let cc = Congruence::new();
        cc.assert_eq(&Term::var("x"), &Term::var("y"));
        let outer = cc.snapshot();
        cc.assert_eq(&Term::var("y"), &Term::var("z"));
        let inner = cc.snapshot();
        cc.assert_neq(&Term::var("x"), &Term::var("w"));
        assert_eq!(cc.decide(&Term::var("z"), &Term::var("w")), Some(false));
        cc.rollback_to(&inner);
        assert_eq!(cc.decide(&Term::var("z"), &Term::var("w")), None);
        assert_eq!(cc.decide(&Term::var("x"), &Term::var("z")), Some(true));
        cc.rollback_to(&outer);
        assert_eq!(cc.decide(&Term::var("x"), &Term::var("z")), None);
        assert_eq!(cc.decide(&Term::var("x"), &Term::var("y")), Some(true));
    }

    #[test]
    fn rollback_restores_uses_so_later_merges_still_propagate() {
        // Regression shape: the `uses` lists must survive a rollback that
        // undoes a merge, or congruences discovered after the rollback
        // would be missed.
        let cc = Congruence::new();
        let (ga, gb) = (f("g", [Term::var("a")]), f("g", [Term::var("b")]));
        assert_eq!(cc.decide(&ga, &gb), None);
        let snap = cc.snapshot();
        cc.assert_eq(&Term::var("a"), &Term::var("b"));
        assert_eq!(cc.decide(&ga, &gb), Some(true));
        cc.rollback_to(&snap);
        assert_eq!(cc.decide(&ga, &gb), None);
        cc.assert_eq(&Term::var("a"), &Term::var("b"));
        assert_eq!(cc.decide(&ga, &gb), Some(true));
    }
}
