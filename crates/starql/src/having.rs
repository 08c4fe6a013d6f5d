//! The HAVING condition language and its evaluator.
//!
//! HAVING conditions quantify over the *states* of a window's sequence
//! (`EXISTS ?k IN seq`, `FORALL ?i < ?j IN seq`), inspect the RDF graph at a
//! state (`GRAPH ?i { ?s sie:hasValue ?x }`), and compare values
//! (`?x <= ?y`). Two layers:
//!
//! * [`ProtoFormula`] — the parser's output: may contain `$param`
//!   placeholders and macro calls (`MONOTONIC.HAVING(?c2, sie:hasValue)`);
//!   [`expand`] substitutes macro definitions away,
//! * [`HavingFormula`] — the closed form the evaluator runs against a
//!   [`crate::sequence::StateSequence`].
//!
//! `FORALL`'s universally-quantified value variables are range-restricted
//! by the graph patterns in the `IF` condition (the classical safe-formula
//! requirement): evaluation enumerates the condition's satisfying
//! assignments and checks the consequent under each.
//!
//! Formulas evaluate through a compiled [`HavingPlan`]: quantifiers become
//! joins over per-state graph-pattern answers, with order constraints and
//! comparisons applied as soon as their variables bind (see the section
//! comment at the plan). [`HavingFormula::eval_reference`] keeps the
//! direct enumeration of every state assignment as the differential
//! tests' reference arm.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use optique_rdf::{Graph, Iri, Term};
use optique_relational::AggAcc;
use optique_rewrite::{Atom, ConjunctiveQuery, QueryTerm};

use crate::sequence::StateSequence;

/// Window-aggregate functions usable in HAVING atoms like
/// `SUM(?c, sie:hasValue) >= 100`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AggFunc {
    /// Number of non-null values.
    Count,
    /// Sum of numeric values.
    Sum,
    /// Arithmetic mean of numeric values.
    Avg,
    /// Smallest numeric value.
    Min,
    /// Largest numeric value.
    Max,
}

impl AggFunc {
    /// Parses an aggregate keyword (case-insensitive); `None` for any other
    /// identifier, so ordinary macro namespaces keep working.
    pub fn from_keyword(word: &str) -> Option<AggFunc> {
        match word.to_ascii_uppercase().as_str() {
            "COUNT" => Some(AggFunc::Count),
            "SUM" => Some(AggFunc::Sum),
            "AVG" => Some(AggFunc::Avg),
            "MIN" => Some(AggFunc::Min),
            "MAX" => Some(AggFunc::Max),
            _ => None,
        }
    }
}

/// Per-subject window aggregates handed to the evaluator for a tick: the
/// group key is the minted subject term (one group per sensor), the value
/// the combined accumulator over the window's tuples.
pub type AggContext = BTreeMap<Term, AggAcc>;

/// Comparison operators in value comparisons.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    fn test(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CmpOp::Eq => ord == Equal,
            CmpOp::Ne => ord != Equal,
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
        }
    }
}

/// A term in the pre-expansion formula: variable, constant, or `$param`.
#[derive(Clone, PartialEq, Debug)]
pub enum ProtoTerm {
    /// `?x`.
    Var(String),
    /// An IRI or literal constant.
    Const(Term),
    /// `$param` (macro formal).
    Param(String),
}

/// A graph-pattern atom whose predicate may still be a `$param`.
#[derive(Clone, PartialEq, Debug)]
pub struct ProtoAtom {
    /// Subject.
    pub subject: ProtoTerm,
    /// Predicate: an IRI or a parameter. `None` encodes the unary
    /// class-style pattern `{ ?x sie:showsFailure }` where the "predicate"
    /// slot is really a class.
    pub predicate: ProtoPred,
    /// Object, absent for unary patterns.
    pub object: Option<ProtoTerm>,
}

/// Predicate slot of a proto atom.
#[derive(Clone, PartialEq, Debug)]
pub enum ProtoPred {
    /// A known IRI.
    Iri(Iri),
    /// A macro parameter.
    Param(String),
}

/// Pre-expansion HAVING formula.
#[derive(Clone, PartialEq, Debug)]
pub enum ProtoFormula {
    /// Always true.
    True,
    /// `EXISTS ?k IN seq : body`.
    Exists {
        /// Quantified state variables.
        state_vars: Vec<String>,
        /// Scope.
        body: Box<ProtoFormula>,
    },
    /// `FORALL ?i < ?j IN seq, ?x, ?y : body`.
    Forall {
        /// Quantified state variables (the `< `-chain order constraint is
        /// expressed separately inside the body when present).
        state_vars: Vec<String>,
        /// Universally quantified value variables.
        value_vars: Vec<String>,
        /// Scope (normally an `IF`).
        body: Box<ProtoFormula>,
    },
    /// `IF (cond) THEN then`.
    If {
        /// Antecedent (range-restricts value variables).
        cond: Box<ProtoFormula>,
        /// Consequent.
        then: Box<ProtoFormula>,
    },
    /// Conjunction.
    And(Box<ProtoFormula>, Box<ProtoFormula>),
    /// Disjunction.
    Or(Box<ProtoFormula>, Box<ProtoFormula>),
    /// Negation.
    Not(Box<ProtoFormula>),
    /// `?i, ?j < ?k`: every left state index precedes the right one.
    StateLess {
        /// Left state variables.
        left: Vec<String>,
        /// Right state variable.
        right: String,
    },
    /// `GRAPH ?k { atoms }`.
    Graph {
        /// The state variable.
        state: String,
        /// The pattern.
        atoms: Vec<ProtoAtom>,
    },
    /// Value comparison.
    Cmp {
        /// Left term.
        left: ProtoTerm,
        /// Operator.
        op: CmpOp,
        /// Right term.
        right: ProtoTerm,
    },
    /// `NS.NAME(args)` aggregate macro call.
    MacroCall {
        /// Namespace part.
        namespace: String,
        /// Name part.
        name: String,
        /// Actual arguments.
        args: Vec<ProtoTerm>,
    },
    /// `SUM(?c, sie:hasValue) >= 100` — a window aggregate over one
    /// subject's values of a property, compared against a threshold.
    Agg {
        /// The aggregate function.
        func: AggFunc,
        /// The grouped subject (a WHERE variable or a constant IRI).
        subject: ProtoTerm,
        /// The aggregated value property.
        property: ProtoPred,
        /// Comparison operator.
        op: CmpOp,
        /// Threshold term (a numeric literal or a bound variable).
        threshold: ProtoTerm,
    },
}

/// Macro-expansion and `$param` resolution: turns a [`ProtoFormula`] into an
/// evaluable [`HavingFormula`] given the query's aggregate definitions.
pub fn expand(
    formula: &ProtoFormula,
    macros: &[crate::ast::AggregateDef],
) -> Result<HavingFormula, String> {
    expand_with(formula, macros, &HashMap::new(), 0)
}

fn expand_with(
    formula: &ProtoFormula,
    macros: &[crate::ast::AggregateDef],
    params: &HashMap<String, ProtoTerm>,
    depth: usize,
) -> Result<HavingFormula, String> {
    if depth > 16 {
        return Err("aggregate macros nest too deep (cycle?)".into());
    }
    let resolve_term = |t: &ProtoTerm| -> Result<QueryTerm, String> {
        match t {
            ProtoTerm::Var(v) => Ok(QueryTerm::var(v.clone())),
            ProtoTerm::Const(c) => Ok(QueryTerm::Const(c.clone())),
            ProtoTerm::Param(p) => match params.get(p) {
                Some(ProtoTerm::Var(v)) => Ok(QueryTerm::var(v.clone())),
                Some(ProtoTerm::Const(c)) => Ok(QueryTerm::Const(c.clone())),
                Some(ProtoTerm::Param(_)) => Err(format!("parameter ${p} bound to a parameter")),
                None => Err(format!("unbound macro parameter ${p}")),
            },
        }
    };
    let resolve_pred = |p: &ProtoPred| -> Result<Iri, String> {
        match p {
            ProtoPred::Iri(iri) => Ok(iri.clone()),
            ProtoPred::Param(name) => match params.get(name) {
                Some(ProtoTerm::Const(Term::Iri(iri))) => Ok(iri.clone()),
                Some(other) => Err(format!(
                    "parameter ${name} used as predicate but bound to {other:?}"
                )),
                None => Err(format!("unbound macro parameter ${name}")),
            },
        }
    };

    Ok(match formula {
        ProtoFormula::True => HavingFormula::True,
        ProtoFormula::Exists { state_vars, body } => HavingFormula::Exists {
            state_vars: state_vars.clone(),
            body: Box::new(expand_with(body, macros, params, depth)?),
        },
        ProtoFormula::Forall {
            state_vars,
            value_vars,
            body,
        } => HavingFormula::Forall {
            state_vars: state_vars.clone(),
            value_vars: value_vars.clone(),
            body: Box::new(expand_with(body, macros, params, depth)?),
        },
        ProtoFormula::If { cond, then } => HavingFormula::If {
            cond: Box::new(expand_with(cond, macros, params, depth)?),
            then: Box::new(expand_with(then, macros, params, depth)?),
        },
        ProtoFormula::And(a, b) => HavingFormula::And(
            Box::new(expand_with(a, macros, params, depth)?),
            Box::new(expand_with(b, macros, params, depth)?),
        ),
        ProtoFormula::Or(a, b) => HavingFormula::Or(
            Box::new(expand_with(a, macros, params, depth)?),
            Box::new(expand_with(b, macros, params, depth)?),
        ),
        ProtoFormula::Not(a) => {
            HavingFormula::Not(Box::new(expand_with(a, macros, params, depth)?))
        }
        ProtoFormula::StateLess { left, right } => HavingFormula::StateLess {
            left: left.clone(),
            right: right.clone(),
        },
        ProtoFormula::Graph { state, atoms } => {
            let mut out = Vec::with_capacity(atoms.len());
            for atom in atoms {
                let subject = resolve_term(&atom.subject)?;
                match &atom.object {
                    Some(object) => {
                        let predicate = resolve_pred(&atom.predicate)?;
                        out.push(Atom::Property {
                            property: predicate,
                            subject,
                            object: resolve_term(object)?,
                        });
                    }
                    None => {
                        // Unary pattern `{ ?x C }`: class membership.
                        let class = resolve_pred(&atom.predicate)?;
                        out.push(Atom::Class {
                            class,
                            arg: subject,
                        });
                    }
                }
            }
            HavingFormula::Graph {
                state: state.clone(),
                atoms: out,
            }
        }
        ProtoFormula::Cmp { left, op, right } => HavingFormula::Cmp {
            left: resolve_term(left)?,
            op: *op,
            right: resolve_term(right)?,
        },
        ProtoFormula::MacroCall {
            namespace,
            name,
            args,
        } => {
            let def = macros
                .iter()
                .find(|d| {
                    d.namespace.eq_ignore_ascii_case(namespace) && d.name.eq_ignore_ascii_case(name)
                })
                .ok_or_else(|| format!("unknown aggregate macro {namespace}.{name}"))?;
            if def.params.len() != args.len() {
                return Err(format!(
                    "macro {namespace}.{name} expects {} arguments, got {}",
                    def.params.len(),
                    args.len()
                ));
            }
            // Resolve actual args in the current param scope first.
            let mut inner: HashMap<String, ProtoTerm> = HashMap::new();
            for (formal, actual) in def.params.iter().zip(args) {
                let resolved = match actual {
                    ProtoTerm::Param(p) => params
                        .get(p)
                        .cloned()
                        .ok_or_else(|| format!("unbound macro parameter ${p}"))?,
                    other => other.clone(),
                };
                inner.insert(formal.clone(), resolved);
            }
            expand_with(&def.body, macros, &inner, depth + 1)?
        }
        ProtoFormula::Agg {
            func,
            subject,
            property,
            op,
            threshold,
        } => HavingFormula::Agg {
            func: *func,
            subject: resolve_term(subject)?,
            property: resolve_pred(property)?,
            op: *op,
            threshold: resolve_term(threshold)?,
        },
    })
}

/// The evaluable HAVING formula.
#[derive(Clone, PartialEq, Debug)]
pub enum HavingFormula {
    /// Always true.
    True,
    /// Existential state quantifier.
    Exists {
        /// Quantified state variables.
        state_vars: Vec<String>,
        /// Scope.
        body: Box<HavingFormula>,
    },
    /// Universal state/value quantifier.
    Forall {
        /// Quantified state variables.
        state_vars: Vec<String>,
        /// Universally quantified value variables (range-restricted by the
        /// `IF` condition in the body).
        value_vars: Vec<String>,
        /// Scope.
        body: Box<HavingFormula>,
    },
    /// Guarded implication.
    If {
        /// Antecedent.
        cond: Box<HavingFormula>,
        /// Consequent.
        then: Box<HavingFormula>,
    },
    /// Conjunction.
    And(Box<HavingFormula>, Box<HavingFormula>),
    /// Disjunction.
    Or(Box<HavingFormula>, Box<HavingFormula>),
    /// Negation.
    Not(Box<HavingFormula>),
    /// State-order constraint.
    StateLess {
        /// Left state variables.
        left: Vec<String>,
        /// Right state variable.
        right: String,
    },
    /// Graph pattern at a state.
    Graph {
        /// State variable.
        state: String,
        /// Pattern atoms.
        atoms: Vec<Atom>,
    },
    /// Value comparison.
    Cmp {
        /// Left term.
        left: QueryTerm,
        /// Operator.
        op: CmpOp,
        /// Right term.
        right: QueryTerm,
    },
    /// Window aggregate comparison: `FUNC(subject, property) op threshold`.
    ///
    /// Evaluated against the tick's [`AggContext`] (per-subject accumulators
    /// over the whole window), not against individual states — which is what
    /// lets the engine answer it from pane partials without materializing
    /// the window.
    Agg {
        /// The aggregate function.
        func: AggFunc,
        /// The grouped subject.
        subject: QueryTerm,
        /// The aggregated value property.
        property: Iri,
        /// Comparison operator.
        op: CmpOp,
        /// Threshold term.
        threshold: QueryTerm,
    },
}

/// Evaluation environment: state variables → state indices, value
/// variables → RDF terms.
#[derive(Clone, Debug, Default)]
pub struct Env {
    /// State-variable bindings.
    pub states: HashMap<String, usize>,
    /// Value-variable bindings.
    pub values: HashMap<String, Term>,
}

impl HavingFormula {
    /// Evaluates the formula over a state sequence under an environment
    /// binding its free variables. Formulas containing [`HavingFormula::Agg`]
    /// atoms need [`HavingFormula::eval_with`] and an aggregate context.
    pub fn eval(&self, seq: &StateSequence, env: &Env) -> Result<bool, String> {
        self.eval_with(seq, env, None)
    }

    /// Evaluates the formula, additionally supplying the tick's per-subject
    /// window aggregates for [`HavingFormula::Agg`] atoms. Compiles a
    /// [`HavingPlan`] for `env`'s variables and runs it; callers evaluating
    /// one formula many times compile the plan once instead.
    pub fn eval_with(
        &self,
        seq: &StateSequence,
        env: &Env,
        aggs: Option<&AggContext>,
    ) -> Result<bool, String> {
        HavingPlan::compile(self, env.values.keys(), env.states.keys())?.eval(seq, env, aggs)
    }

    /// The reference enumerator: assigns every quantified state variable
    /// every state index (nᵏ assignments for k variables) and evaluates the
    /// body under each, building a fresh conjunctive query per graph
    /// pattern. Kept as the differential tests' reference arm for
    /// [`HavingPlan`]; no tick path calls it.
    pub fn eval_reference(
        &self,
        seq: &StateSequence,
        env: &Env,
        aggs: Option<&AggContext>,
    ) -> Result<bool, String> {
        match self {
            HavingFormula::True => Ok(true),
            HavingFormula::Exists { state_vars, body } => {
                let n = seq.states.len();
                let mut env = env.clone();
                exists_rec(state_vars, 0, n, &mut env, |e| {
                    body.eval_reference(seq, e, aggs)
                })
            }
            HavingFormula::Forall {
                state_vars,
                value_vars: _,
                body,
            } => {
                // Enumerate all state assignments; the body (typically an
                // IF) handles value-variable range restriction.
                let n = seq.states.len();
                let mut env = env.clone();
                forall_rec(state_vars, 0, n, &mut env, |e| {
                    body.eval_reference(seq, e, aggs)
                })
            }
            HavingFormula::If { cond, then } => {
                // For every satisfying extension of the antecedent, the
                // consequent must hold.
                for extended in cond.reference_assignments(seq, env, aggs)? {
                    if !then.eval_reference(seq, &extended, aggs)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            HavingFormula::And(..) => {
                // Conjunctions evaluate existentially over the bindings their
                // graph patterns produce: `GRAPH ?k {?s :v ?x} AND ?x >= 95`
                // holds when SOME match of the pattern satisfies the
                // comparison. Non-binding conjuncts act as boolean filters.
                Ok(!self.reference_assignments(seq, env, aggs)?.is_empty())
            }
            HavingFormula::Or(a, b) => {
                Ok(a.eval_reference(seq, env, aggs)? || b.eval_reference(seq, env, aggs)?)
            }
            HavingFormula::Not(a) => Ok(!a.eval_reference(seq, env, aggs)?),
            HavingFormula::StateLess { left, right } => {
                let r = lookup_state(env, right)?;
                for l in left {
                    if lookup_state(env, l)? >= r {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            HavingFormula::Graph { state, atoms } => {
                let idx = lookup_state(env, state)?;
                let graph = &seq
                    .states
                    .get(idx)
                    .ok_or_else(|| format!("state index {idx} out of range"))?
                    .graph;
                let cq = pattern_query(atoms, env, &[]);
                Ok(!cq.evaluate(graph).is_empty())
            }
            HavingFormula::Cmp { left, op, right } => {
                let l = lookup_value(env, left)?;
                let r = lookup_value(env, right)?;
                Ok(op.test(compare_terms(&l, &r)))
            }
            HavingFormula::Agg {
                func,
                subject,
                property: _,
                op,
                threshold,
            } => {
                let Some(ctx) = aggs else {
                    return Err(
                        "aggregate atom requires a windowed aggregate context (eval_with)".into(),
                    );
                };
                agg_holds(
                    ctx,
                    *func,
                    &lookup_value(env, subject)?,
                    *op,
                    &lookup_value(env, threshold)?,
                )
            }
        }
    }

    /// Enumerates the environments extending `env` that satisfy this
    /// formula — defined for the conjunctive fragment (AND / Graph /
    /// StateLess / Cmp); other connectives act as boolean filters.
    fn reference_assignments(
        &self,
        seq: &StateSequence,
        env: &Env,
        aggs: Option<&AggContext>,
    ) -> Result<Vec<Env>, String> {
        match self {
            HavingFormula::And(a, b) => {
                let mut out = Vec::new();
                for e in a.reference_assignments(seq, env, aggs)? {
                    out.extend(b.reference_assignments(seq, &e, aggs)?);
                }
                Ok(out)
            }
            HavingFormula::Graph { state, atoms } => {
                let idx = lookup_state(env, state)?;
                let graph = &seq
                    .states
                    .get(idx)
                    .ok_or_else(|| format!("state index {idx} out of range"))?
                    .graph;
                // Free variables of the pattern become answer variables.
                let free = free_value_vars(atoms, env);
                let cq = pattern_query(atoms, env, &free);
                let mut out = Vec::new();
                for tuple in cq.evaluate(graph) {
                    let mut extended = env.clone();
                    for (var, term) in free.iter().zip(tuple) {
                        extended.values.insert(var.clone(), term);
                    }
                    out.push(extended);
                }
                Ok(out)
            }
            other => {
                if other.eval_reference(seq, env, aggs)? {
                    Ok(vec![env.clone()])
                } else {
                    Ok(vec![])
                }
            }
        }
    }
}

// ---- the join evaluator --------------------------------------------------
//
// A [`HavingPlan`] evaluates the same formula as the reference enumerator,
// but as a join instead of an enumeration of state assignments. Compiling
// resolves every variable occurrence lexically to a *slot*: each quantified
// state variable and each value variable a graph pattern binds gets its own
// slot, so shadowing and scoping are settled once, not per evaluation.
//
// Every quantifier, `IF` and `AND` reduces to one question — does a
// conjunction (a flattened `AND` chain) have a solution? — answered by a
// backtracking search over *steps*:
//
// * graph patterns stay in their written order (they bind the value
//   variables later conjuncts read); a pattern whose state variable is
//   still unbound enumerates the states, narrowed by any `?a < ?b` bounds
//   already known;
// * every other conjunct is a pure filter and runs as soon as the slots it
//   reads are bound — `?x <= 40` right after the pattern binding `?x`, a
//   `FORALL` that reads only the sensor before any state is enumerated;
// * a state variable no pattern binds is enumerated just before the first
//   filter that reads it, and one nothing reads only needs a nonempty
//   sequence.
//
// `EXISTS` asks for a solution of its body; `FORALL … IF c THEN t` and
// `IF c THEN t` ask for a solution of `c ∧ ¬t` and negate the answer.
// Graph-pattern answers are memoized per (pattern, state, input values)
// for one evaluation, so each (binding, state, pattern) is matched at most
// once however many assignments reach it.
//
// Formulas that read a variable no enclosing quantifier, graph pattern or
// environment binds are rejected when compiled; the reference enumerator
// reports the same unbound variable, but only once evaluation reaches it.

/// A compiled HAVING formula: the join evaluator. Compile once per
/// formula and environment shape ([`HavingPlan::compile`]), then
/// [`HavingPlan::eval`] per binding and tick.
#[derive(Clone, Debug)]
pub struct HavingPlan {
    root: Node,
    /// Environment value variables and their slots.
    value_inputs: Vec<(String, usize)>,
    /// Environment state variables and their slots.
    state_inputs: Vec<(String, usize)>,
    value_slots: usize,
    state_slots: usize,
}

#[derive(Clone, Debug)]
enum Node {
    True,
    /// Whether the conjunction has a solution (`negate`: whether it has
    /// none).
    Search {
        steps: Vec<Step>,
        negate: bool,
    },
    Or(Box<Node>, Box<Node>),
    Not(Box<Node>),
    StateLess {
        left: Vec<usize>,
        right: usize,
    },
    /// Whether the pattern matches at the bound state.
    Graph(GraphMatch),
    Cmp {
        left: Operand,
        op: CmpOp,
        right: Operand,
    },
    Agg {
        func: AggFunc,
        subject: Operand,
        op: CmpOp,
        threshold: Operand,
    },
}

#[derive(Clone, Debug)]
enum Operand {
    Const(Term),
    Slot(usize),
}

/// A graph pattern at one state. `atoms` name inputs `?\u{1}i<n>` and
/// outputs `?\u{1}o<n>`, so patterns equal up to variable naming share
/// one memo id (`GRAPH ?i {?c :v ?x}` and `GRAPH ?j {?c :v ?y}`).
#[derive(Clone, Debug)]
struct GraphMatch {
    pattern: usize,
    state: usize,
    atoms: Vec<Atom>,
    inputs: Vec<usize>,
    outputs: Vec<usize>,
}

/// Strict order bounds on a state slot being bound: it must exceed every
/// `after` slot and precede every `before` slot.
#[derive(Clone, Debug, Default)]
struct Bounds {
    after: Vec<usize>,
    before: Vec<usize>,
}

#[derive(Clone, Debug)]
enum Step {
    /// Bind the state slot to every state within bounds.
    Bind {
        slot: usize,
        bounds: Bounds,
    },
    /// Match the pattern, first binding its state slot when `bind` is set.
    Match {
        graph: GraphMatch,
        bind: Option<Bounds>,
    },
    Filter(Node),
}

/// Slots a compiled node reads and binds.
#[derive(Default)]
struct Slots {
    reads_values: BTreeSet<usize>,
    reads_states: BTreeSet<usize>,
    binds_values: BTreeSet<usize>,
    binds_states: BTreeSet<usize>,
}

impl Slots {
    fn of(node: &Node) -> Slots {
        let mut out = Slots::default();
        out.walk(node);
        out
    }

    fn operand(&mut self, o: &Operand) {
        if let Operand::Slot(s) = o {
            self.reads_values.insert(*s);
        }
    }

    fn graph(&mut self, g: &GraphMatch) {
        self.reads_states.insert(g.state);
        self.reads_values.extend(&g.inputs);
        self.binds_values.extend(&g.outputs);
    }

    fn walk(&mut self, node: &Node) {
        match node {
            Node::True => {}
            Node::Search { steps, .. } => {
                for step in steps {
                    match step {
                        Step::Bind { slot, bounds } => {
                            self.binds_states.insert(*slot);
                            self.reads_states
                                .extend(bounds.after.iter().chain(&bounds.before));
                        }
                        Step::Match { graph, bind } => {
                            self.graph(graph);
                            if let Some(bounds) = bind {
                                self.binds_states.insert(graph.state);
                                self.reads_states
                                    .extend(bounds.after.iter().chain(&bounds.before));
                            }
                        }
                        Step::Filter(f) => self.walk(f),
                    }
                }
            }
            Node::Or(a, b) => {
                self.walk(a);
                self.walk(b);
            }
            Node::Not(a) => self.walk(a),
            Node::StateLess { left, right } => {
                self.reads_states.extend(left);
                self.reads_states.insert(*right);
            }
            Node::Graph(g) => self.graph(g),
            Node::Cmp { left, right, .. } => {
                self.operand(left);
                self.operand(right);
            }
            Node::Agg {
                subject, threshold, ..
            } => {
                self.operand(subject);
                self.operand(threshold);
            }
        }
    }

    /// `(value slots, state slots)` read from outside the node.
    fn needs(&self) -> (BTreeSet<usize>, BTreeSet<usize>) {
        (
            self.reads_values
                .difference(&self.binds_values)
                .copied()
                .collect(),
            self.reads_states
                .difference(&self.binds_states)
                .copied()
                .collect(),
        )
    }
}

/// Lexical scope while compiling: variable names → slots.
#[derive(Clone, Default)]
struct Scope {
    values: HashMap<String, usize>,
    states: HashMap<String, usize>,
}

#[derive(Default)]
struct Compiler {
    value_slots: usize,
    state_slots: usize,
    patterns: Vec<Vec<Atom>>,
}

/// A non-pattern conjunct and the value and state slots it reads from
/// outside itself.
struct Filter {
    node: Node,
    values: BTreeSet<usize>,
    states: BTreeSet<usize>,
}

impl Filter {
    fn new(node: Node) -> Filter {
        let (values, states) = Slots::of(&node).needs();
        Filter {
            node,
            values,
            states,
        }
    }
}

impl Compiler {
    fn state_slot(&self, scope: &Scope, var: &str) -> Result<usize, String> {
        scope
            .states
            .get(var)
            .copied()
            .ok_or_else(|| format!("unbound state variable ?{var}"))
    }

    fn operand(&self, scope: &Scope, term: &QueryTerm) -> Result<Operand, String> {
        match term {
            QueryTerm::Const(c) => Ok(Operand::Const(c.clone())),
            QueryTerm::Var(v) => scope
                .values
                .get(v)
                .map(|&s| Operand::Slot(s))
                .ok_or_else(|| format!("unbound value variable ?{v}")),
        }
    }

    /// Compiles a pattern; its variables outside `scope` become fresh
    /// output slots, added to `scope` for the conjuncts after it.
    fn graph(
        &mut self,
        scope: &mut Scope,
        state: &str,
        atoms: &[Atom],
    ) -> Result<GraphMatch, String> {
        let state = self.state_slot(scope, state)?;
        let (mut inputs, mut outputs) = (Vec::new(), Vec::new());
        let mut local: HashMap<String, String> = HashMap::new();
        let mut rename = |t: &QueryTerm, scope: &Scope, this: &mut Compiler| -> QueryTerm {
            let QueryTerm::Var(v) = t else {
                return t.clone();
            };
            if let Some(name) = local.get(v) {
                return QueryTerm::var(name.clone());
            }
            let name = match scope.values.get(v) {
                Some(&slot) => {
                    inputs.push(slot);
                    format!("\u{1}i{}", inputs.len() - 1)
                }
                None => {
                    outputs.push((v.clone(), this.value_slots));
                    this.value_slots += 1;
                    format!("\u{1}o{}", outputs.len() - 1)
                }
            };
            local.insert(v.clone(), name.clone());
            QueryTerm::var(name)
        };
        let atoms: Vec<Atom> = atoms
            .iter()
            .map(|a| match a {
                Atom::Class { class, arg } => Atom::Class {
                    class: class.clone(),
                    arg: rename(arg, scope, self),
                },
                Atom::Property {
                    property,
                    subject,
                    object,
                } => Atom::Property {
                    property: property.clone(),
                    subject: rename(subject, scope, self),
                    object: rename(object, scope, self),
                },
            })
            .collect();
        let pattern = match self.patterns.iter().position(|p| *p == atoms) {
            Some(id) => id,
            None => {
                self.patterns.push(atoms.clone());
                self.patterns.len() - 1
            }
        };
        for (name, slot) in &outputs {
            scope.values.insert(name.clone(), *slot);
        }
        Ok(GraphMatch {
            pattern,
            state,
            atoms,
            inputs,
            outputs: outputs.into_iter().map(|(_, slot)| slot).collect(),
        })
    }

    fn node(&mut self, f: &HavingFormula, scope: &Scope) -> Result<Node, String> {
        Ok(match f {
            HavingFormula::True => Node::True,
            HavingFormula::Exists { state_vars, body } => {
                let (inner, pending) = self.quantify(scope, state_vars);
                Node::Search {
                    steps: self.conj(&conjuncts(body), inner, pending, None)?,
                    negate: false,
                }
            }
            HavingFormula::Forall {
                state_vars, body, ..
            } => {
                let (inner, pending) = self.quantify(scope, state_vars);
                let steps = match body.as_ref() {
                    HavingFormula::If { cond, then } => {
                        self.conj(&conjuncts(cond), inner, pending, Some(then))?
                    }
                    other => self.conj(&[], inner, pending, Some(other))?,
                };
                Node::Search {
                    steps,
                    negate: true,
                }
            }
            HavingFormula::If { cond, then } => Node::Search {
                steps: self.conj(&conjuncts(cond), scope.clone(), Vec::new(), Some(then))?,
                negate: true,
            },
            HavingFormula::And(..) => Node::Search {
                steps: self.conj(&conjuncts(f), scope.clone(), Vec::new(), None)?,
                negate: false,
            },
            HavingFormula::Or(a, b) => Node::Or(
                Box::new(self.node(a, scope)?),
                Box::new(self.node(b, scope)?),
            ),
            HavingFormula::Not(a) => Node::Not(Box::new(self.node(a, scope)?)),
            HavingFormula::StateLess { left, right } => Node::StateLess {
                left: left
                    .iter()
                    .map(|v| self.state_slot(scope, v))
                    .collect::<Result<_, _>>()?,
                right: self.state_slot(scope, right)?,
            },
            HavingFormula::Graph { state, atoms } => {
                Node::Graph(self.graph(&mut scope.clone(), state, atoms)?)
            }
            HavingFormula::Cmp { left, op, right } => Node::Cmp {
                left: self.operand(scope, left)?,
                op: *op,
                right: self.operand(scope, right)?,
            },
            HavingFormula::Agg {
                func,
                subject,
                op,
                threshold,
                ..
            } => Node::Agg {
                func: *func,
                subject: self.operand(scope, subject)?,
                op: *op,
                threshold: self.operand(scope, threshold)?,
            },
        })
    }

    /// Fresh slots for quantified state variables, shadowing outer ones.
    fn quantify(&mut self, scope: &Scope, vars: &[String]) -> (Scope, Vec<usize>) {
        let mut inner = scope.clone();
        let mut pending = Vec::with_capacity(vars.len());
        for v in vars {
            let slot = self.state_slot_fresh();
            inner.states.insert(v.clone(), slot);
            pending.push(slot);
        }
        (inner, pending)
    }

    fn state_slot_fresh(&mut self) -> usize {
        self.state_slots += 1;
        self.state_slots - 1
    }

    /// Compiles a conjunction whose `pending` state slots are quantified
    /// here, with `negated` (an `IF`'s consequent) conjoined negated, and
    /// schedules it into steps (see the section comment).
    fn conj(
        &mut self,
        items: &[&HavingFormula],
        mut scope: Scope,
        pending: Vec<usize>,
        negated: Option<&HavingFormula>,
    ) -> Result<Vec<Step>, String> {
        // Patterns keep their written order; every other conjunct is a
        // filter that runs right after the step binding the last slot it
        // reads.
        let mut graphs = Vec::new();
        let mut waiting: Vec<Filter> = Vec::new();
        for item in items {
            match item {
                HavingFormula::Graph { state, atoms } => {
                    graphs.push(self.graph(&mut scope, state, atoms)?)
                }
                other => waiting.push(Filter::new(self.node(other, &scope)?)),
            }
        }
        if let Some(then) = negated {
            waiting.push(Filter::new(Node::Not(Box::new(self.node(then, &scope)?))));
        }

        // Direct `?a < ?b` conjuncts narrow the states a slot enumerates.
        let order: Vec<(usize, usize)> = waiting
            .iter()
            .filter_map(|f| match &f.node {
                Node::StateLess { left, right } => Some(left.iter().map(move |&l| (l, *right))),
                _ => None,
            })
            .flatten()
            .collect();
        let bounds = |slot: usize, unbound: &BTreeSet<usize>| Bounds {
            after: order
                .iter()
                .filter(|&&(l, r)| r == slot && l != slot && !unbound.contains(&l))
                .map(|&(l, _)| l)
                .collect(),
            before: order
                .iter()
                .filter(|&&(l, r)| l == slot && r != slot && !unbound.contains(&r))
                .map(|&(_, r)| r)
                .collect(),
        };
        let mut unbound: BTreeSet<usize> = pending.into_iter().collect();
        let mut unbound_values: BTreeSet<usize> = graphs
            .iter()
            .flat_map(|g| g.outputs.iter().copied())
            .collect();
        let flush = |waiting: &mut Vec<Filter>,
                     steps: &mut Vec<Step>,
                     unbound: &BTreeSet<usize>,
                     unbound_values: &BTreeSet<usize>| {
            let mut i = 0;
            while i < waiting.len() {
                let f = &waiting[i];
                if f.values.is_disjoint(unbound_values) && f.states.is_disjoint(unbound) {
                    steps.push(Step::Filter(waiting.remove(i).node));
                } else {
                    i += 1;
                }
            }
        };
        let mut steps = Vec::new();
        flush(&mut waiting, &mut steps, &unbound, &unbound_values);
        for graph in graphs {
            let bind = unbound
                .remove(&graph.state)
                .then(|| bounds(graph.state, &unbound));
            for slot in &graph.outputs {
                unbound_values.remove(slot);
            }
            steps.push(Step::Match { graph, bind });
            flush(&mut waiting, &mut steps, &unbound, &unbound_values);
        }
        // Filters reading states no pattern binds: enumerate those states
        // right before the first filter that needs them.
        for filter in waiting {
            for &slot in &filter.states {
                if unbound.remove(&slot) {
                    steps.push(Step::Bind {
                        slot,
                        bounds: bounds(slot, &unbound),
                    });
                }
            }
            steps.push(Step::Filter(filter.node));
        }
        // A quantified state nothing reads still needs some state to range
        // over: the empty sequence has no witness.
        for slot in unbound {
            steps.push(Step::Bind {
                slot,
                bounds: Bounds::default(),
            });
        }
        Ok(steps)
    }
}

/// The flattened `AND` chain of a formula, in written order.
fn conjuncts(f: &HavingFormula) -> Vec<&HavingFormula> {
    match f {
        HavingFormula::And(a, b) => {
            let mut out = conjuncts(a);
            out.extend(conjuncts(b));
            out
        }
        other => vec![other],
    }
}

impl HavingPlan {
    /// Compiles `formula` for environments binding exactly the value
    /// variables `values` and the state variables `states`.
    pub fn compile<'a>(
        formula: &HavingFormula,
        values: impl IntoIterator<Item = &'a String>,
        states: impl IntoIterator<Item = &'a String>,
    ) -> Result<HavingPlan, String> {
        let mut compiler = Compiler::default();
        let mut scope = Scope::default();
        let mut value_inputs = Vec::new();
        for name in values {
            value_inputs.push((name.clone(), compiler.value_slots));
            scope.values.insert(name.clone(), compiler.value_slots);
            compiler.value_slots += 1;
        }
        let mut state_inputs = Vec::new();
        for name in states {
            let slot = compiler.state_slot_fresh();
            state_inputs.push((name.clone(), slot));
            scope.states.insert(name.clone(), slot);
        }
        let root = compiler.node(formula, &scope)?;
        Ok(HavingPlan {
            root,
            value_inputs,
            state_inputs,
            value_slots: compiler.value_slots,
            state_slots: compiler.state_slots,
        })
    }

    /// Evaluates the plan under `env`, which must bind the variables the
    /// plan was compiled for.
    pub fn eval(
        &self,
        seq: &StateSequence,
        env: &Env,
        aggs: Option<&AggContext>,
    ) -> Result<bool, String> {
        let mut values = vec![None; self.value_slots];
        for (name, slot) in &self.value_inputs {
            let term = env
                .values
                .get(name)
                .ok_or_else(|| format!("unbound value variable ?{name}"))?;
            values[*slot] = Some(term.clone());
        }
        let mut states = vec![usize::MAX; self.state_slots];
        for (name, slot) in &self.state_inputs {
            let idx = lookup_state(env, name)?;
            if idx >= seq.states.len() {
                return Err(format!("state index {idx} out of range"));
            }
            states[*slot] = idx;
        }
        Run {
            seq,
            aggs,
            values,
            states,
            memo: HashMap::new(),
        }
        .eval(&self.root)
    }
}

/// Memoized answers of one pattern at one state for given input values.
type Answers = std::rc::Rc<Vec<Vec<Term>>>;

/// One evaluation of a plan: the slot values and the pattern memo.
struct Run<'a> {
    seq: &'a StateSequence,
    aggs: Option<&'a AggContext>,
    values: Vec<Option<Term>>,
    states: Vec<usize>,
    memo: HashMap<(usize, usize, Vec<Term>), Answers>,
}

impl Run<'_> {
    fn value(&self, o: &Operand) -> Term {
        match o {
            Operand::Const(c) => c.clone(),
            Operand::Slot(s) => self.values[*s]
                .clone()
                .expect("compiled plans read bound slots only"),
        }
    }

    fn eval(&mut self, node: &Node) -> Result<bool, String> {
        match node {
            Node::True => Ok(true),
            Node::Search { steps, negate } => Ok(self.search(steps)? != *negate),
            Node::Or(a, b) => Ok(self.eval(a)? || self.eval(b)?),
            Node::Not(a) => Ok(!self.eval(a)?),
            Node::StateLess { left, right } => {
                let r = self.states[*right];
                Ok(left.iter().all(|&l| self.states[l] < r))
            }
            Node::Graph(g) => Ok(!self.answers(g).is_empty()),
            Node::Cmp { left, op, right } => {
                Ok(op.test(compare_terms(&self.value(left), &self.value(right))))
            }
            Node::Agg {
                func,
                subject,
                op,
                threshold,
            } => {
                let ctx = self
                    .aggs
                    .ok_or("aggregate atom requires a windowed aggregate context (eval_with)")?;
                agg_holds(
                    ctx,
                    *func,
                    &self.value(subject),
                    *op,
                    &self.value(threshold),
                )
            }
        }
    }

    /// Whether the steps have a solution extending the current slots.
    fn search(&mut self, steps: &[Step]) -> Result<bool, String> {
        let Some((step, rest)) = steps.split_first() else {
            return Ok(true);
        };
        match step {
            Step::Filter(node) => Ok(self.eval(node)? && self.search(rest)?),
            Step::Bind { slot, bounds } => {
                for s in self.range(bounds) {
                    self.states[*slot] = s;
                    if self.search(rest)? {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
            Step::Match { graph, bind: None } => self.extend(graph, rest),
            Step::Match {
                graph,
                bind: Some(bounds),
            } => {
                for s in self.range(bounds) {
                    self.states[graph.state] = s;
                    if self.extend(graph, rest)? {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
        }
    }

    /// Tries every answer of the pattern at its bound state.
    fn extend(&mut self, graph: &GraphMatch, rest: &[Step]) -> Result<bool, String> {
        let answers = self.answers(graph);
        for tuple in answers.iter() {
            for (slot, term) in graph.outputs.iter().zip(tuple) {
                self.values[*slot] = Some(term.clone());
            }
            if self.search(rest)? {
                return Ok(true);
            }
        }
        Ok(false)
    }

    fn range(&self, bounds: &Bounds) -> std::ops::Range<usize> {
        let lo = bounds
            .after
            .iter()
            .map(|&s| self.states[s] + 1)
            .max()
            .unwrap_or(0);
        let hi = bounds
            .before
            .iter()
            .map(|&s| self.states[s])
            .min()
            .unwrap_or(self.seq.states.len())
            .min(self.seq.states.len());
        lo..hi.max(lo)
    }

    /// The pattern's answers at its bound state, matched once per
    /// (pattern, state, input values).
    fn answers(&mut self, graph: &GraphMatch) -> Answers {
        let state = self.states[graph.state];
        let inputs: Vec<Term> = graph
            .inputs
            .iter()
            .map(|&s| {
                self.values[s]
                    .clone()
                    .expect("compiled plans read bound slots only")
            })
            .collect();
        let key = (graph.pattern, state, inputs);
        if let Some(hit) = self.memo.get(&key) {
            return std::rc::Rc::clone(hit);
        }
        let graph_at = &self.seq.states[state].graph;
        let answers: Answers = std::rc::Rc::new(match_atoms(
            graph_at,
            &graph.atoms,
            &key.2,
            graph.outputs.len(),
        ));
        self.memo.insert(key, std::rc::Rc::clone(&answers));
        answers
    }
}

/// Answers of a pattern, as a conjunctive query with the inputs
/// substituted.
fn match_atoms(graph: &Graph, atoms: &[Atom], inputs: &[Term], outputs: usize) -> Vec<Vec<Term>> {
    let bind = |t: &QueryTerm| match t {
        QueryTerm::Var(v) if v.starts_with("\u{1}i") => {
            QueryTerm::Const(inputs[v[2..].parse::<usize>().expect("placeholder index")].clone())
        }
        other => other.clone(),
    };
    let atoms = atoms
        .iter()
        .map(|a| match a {
            Atom::Class { class, arg } => Atom::Class {
                class: class.clone(),
                arg: bind(arg),
            },
            Atom::Property {
                property,
                subject,
                object,
            } => Atom::Property {
                property: property.clone(),
                subject: bind(subject),
                object: bind(object),
            },
        })
        .collect();
    let answer_vars = (0..outputs).map(|i| format!("\u{1}o{i}")).collect();
    ConjunctiveQuery::new(answer_vars, atoms)
        .evaluate(graph)
        .into_iter()
        .collect()
}

fn exists_rec(
    vars: &[String],
    i: usize,
    n: usize,
    env: &mut Env,
    check: impl Fn(&Env) -> Result<bool, String> + Copy,
) -> Result<bool, String> {
    if i == vars.len() {
        return check(env);
    }
    for s in 0..n {
        env.states.insert(vars[i].clone(), s);
        if exists_rec(vars, i + 1, n, env, check)? {
            env.states.remove(&vars[i]);
            return Ok(true);
        }
    }
    env.states.remove(&vars[i]);
    Ok(false)
}

fn forall_rec(
    vars: &[String],
    i: usize,
    n: usize,
    env: &mut Env,
    check: impl Fn(&Env) -> Result<bool, String> + Copy,
) -> Result<bool, String> {
    if i == vars.len() {
        return check(env);
    }
    for s in 0..n {
        env.states.insert(vars[i].clone(), s);
        if !forall_rec(vars, i + 1, n, env, check)? {
            env.states.remove(&vars[i]);
            return Ok(false);
        }
    }
    env.states.remove(&vars[i]);
    Ok(true)
}

fn lookup_state(env: &Env, var: &str) -> Result<usize, String> {
    env.states
        .get(var)
        .copied()
        .ok_or_else(|| format!("unbound state variable ?{var}"))
}

fn lookup_value(env: &Env, term: &QueryTerm) -> Result<Term, String> {
    match term {
        QueryTerm::Const(c) => Ok(c.clone()),
        QueryTerm::Var(v) => env
            .values
            .get(v)
            .cloned()
            .ok_or_else(|| format!("unbound value variable ?{v}")),
    }
}

/// Numeric comparison when both terms are numeric literals; term order
/// otherwise.
fn compare_terms(a: &Term, b: &Term) -> std::cmp::Ordering {
    if let (Term::Literal(la), Term::Literal(lb)) = (a, b) {
        if let (Some(x), Some(y)) = (la.as_f64(), lb.as_f64()) {
            return x.total_cmp(&y);
        }
    }
    a.cmp(b)
}

/// `FUNC(subject) op threshold` against the tick's per-subject window
/// aggregates. A subject with no rows in the window has COUNT 0 but no
/// defined SUM/AVG/MIN/MAX — those comparisons are false.
fn agg_holds(
    ctx: &AggContext,
    func: AggFunc,
    subject: &Term,
    op: CmpOp,
    threshold: &Term,
) -> Result<bool, String> {
    let threshold = match threshold {
        Term::Literal(lit) => lit
            .as_f64()
            .ok_or_else(|| format!("aggregate threshold {lit:?} is not numeric"))?,
        other => return Err(format!("aggregate threshold {other:?} is not a literal")),
    };
    let acc = ctx.get(subject);
    let value = match (func, acc) {
        (AggFunc::Count, None) => Some(0.0),
        (AggFunc::Count, Some(a)) => Some(a.count as f64),
        (_, None) => None,
        (AggFunc::Sum, Some(a)) => (a.count > 0).then(|| a.sum()),
        (AggFunc::Avg, Some(a)) => (a.count > 0).then(|| a.sum() / a.count as f64),
        (AggFunc::Min, Some(a)) => a.min,
        (AggFunc::Max, Some(a)) => a.max,
    };
    Ok(value.is_some_and(|v| op.test(v.total_cmp(&threshold))))
}

/// Builds a CQ from pattern atoms, substituting env-bound variables by
/// constants; `answer_vars` selects which free variables to report.
fn pattern_query(atoms: &[Atom], env: &Env, answer_vars: &[String]) -> ConjunctiveQuery {
    let substitute = |t: &QueryTerm| -> QueryTerm {
        match t {
            QueryTerm::Var(v) => match env.values.get(v) {
                Some(term) => QueryTerm::Const(term.clone()),
                None => t.clone(),
            },
            QueryTerm::Const(_) => t.clone(),
        }
    };
    let atoms = atoms
        .iter()
        .map(|a| match a {
            Atom::Class { class, arg } => Atom::Class {
                class: class.clone(),
                arg: substitute(arg),
            },
            Atom::Property {
                property,
                subject,
                object,
            } => Atom::Property {
                property: property.clone(),
                subject: substitute(subject),
                object: substitute(object),
            },
        })
        .collect();
    ConjunctiveQuery::new(answer_vars.to_vec(), atoms)
}

// ---- stream-restriction safety -----------------------------------------
//
// The distributed tick path may ship each window *restricted* to the rows
// whose subject key belongs to some statically-bound subject (a semi-join
// pushed from the static side of the stream-static join). Restriction
// drops rows that are **foreign** to every binding — and with them it may
// drop whole states (timestamps whose every tuple was foreign). The
// analysis below decides, purely syntactically, when that can never change
// the formula's outcome for any binding:
//
// * every `GRAPH` atom's subject must be a WHERE-bound variable or a
//   constant (checked by the caller, which also inverts the subjects to
//   raw keys) — then a foreign state satisfies *no* graph atom;
// * no `NOT` anywhere — negation can turn a foreign state into a witness;
// * every `EXISTS`-quantified state variable is **guarded**: any witness
//   must satisfy a graph atom at it, so a foreign state is never a
//   witness and removing it removes nothing;
// * every `FORALL`-quantified state variable is **vacuously satisfied at
//   foreign states**: the body is an `IF` whose condition guards the
//   variable (false at foreign ⇒ implication true), so removing the state
//   removes only trivially-met obligations — the classical safe-formula
//   shape the parser already enforces for value variables.

impl HavingFormula {
    /// The subject terms of every `GRAPH` atom in the formula.
    pub fn graph_subjects(&self) -> Vec<&QueryTerm> {
        fn walk<'a>(f: &'a HavingFormula, out: &mut Vec<&'a QueryTerm>) {
            match f {
                HavingFormula::Graph { atoms, .. } => {
                    for atom in atoms {
                        match atom {
                            Atom::Class { arg, .. } => out.push(arg),
                            Atom::Property { subject, .. } => out.push(subject),
                        }
                    }
                }
                HavingFormula::Exists { body, .. } | HavingFormula::Forall { body, .. } => {
                    walk(body, out)
                }
                HavingFormula::If { cond, then } => {
                    walk(cond, out);
                    walk(then, out);
                }
                HavingFormula::And(a, b) | HavingFormula::Or(a, b) => {
                    walk(a, out);
                    walk(b, out);
                }
                HavingFormula::Not(a) => walk(a, out),
                // Aggregate atoms group by subject exactly as graph atoms
                // match by subject: the restriction machinery must keep every
                // aggregated subject's rows in the shipped window.
                HavingFormula::Agg { subject, .. } => out.push(subject),
                HavingFormula::True
                | HavingFormula::StateLess { .. }
                | HavingFormula::Cmp { .. } => {}
            }
        }
        let mut out = Vec::new();
        walk(self, &mut out);
        out
    }

    /// True when dropping stream tuples foreign to every statically-bound
    /// subject provably cannot change this formula's outcome (see the
    /// module-level discussion above). The caller must separately ensure
    /// every graph-atom subject is bound or constant and inverts to a
    /// stream key.
    pub fn restriction_safe(&self) -> bool {
        match self {
            // An aggregate atom reads only its own subject's group; the
            // restricted window keeps all rows of every bound subject (and
            // of every inverted constant subject — `graph_subjects` reports
            // them), so the group's accumulator is unchanged.
            HavingFormula::True
            | HavingFormula::StateLess { .. }
            | HavingFormula::Graph { .. }
            | HavingFormula::Cmp { .. }
            | HavingFormula::Agg { .. } => true,
            HavingFormula::Not(_) => false,
            HavingFormula::And(a, b) | HavingFormula::Or(a, b) => {
                a.restriction_safe() && b.restriction_safe()
            }
            HavingFormula::If { cond, then } => cond.restriction_safe() && then.restriction_safe(),
            HavingFormula::Exists { state_vars, body } => {
                body.restriction_safe() && state_vars.iter().all(|v| body.guards(v))
            }
            HavingFormula::Forall {
                state_vars, body, ..
            } => body.restriction_safe() && state_vars.iter().all(|v| body.vacuous_at_foreign(v)),
        }
    }

    /// True when any satisfying assignment must match a graph atom at
    /// state variable `var` — so a state with no bound-subject triples can
    /// never participate in a witness.
    fn guards(&self, var: &str) -> bool {
        match self {
            HavingFormula::Graph { state, atoms } => state == var && !atoms.is_empty(),
            HavingFormula::And(a, b) => a.guards(var) || b.guards(var),
            HavingFormula::Or(a, b) => a.guards(var) && b.guards(var),
            // An EXISTS holds only through some satisfying body
            // assignment, which must itself guard the outer variable.
            HavingFormula::Exists { body, .. } => body.guards(var),
            // FORALL over an empty candidate set is vacuously true without
            // any graph match; IF escapes through ¬cond; the rest never
            // force a match.
            _ => false,
        }
    }

    /// True when the formula is satisfied by *any* assignment placing
    /// `var` on a foreign state — so removing that state removes only
    /// vacuously-met obligations of an enclosing FORALL.
    fn vacuous_at_foreign(&self, var: &str) -> bool {
        match self {
            HavingFormula::True => true,
            // ¬cond ∨ then: cond guarding `var` is false at a foreign
            // state, so the implication holds there.
            HavingFormula::If { cond, then } => cond.guards(var) || then.vacuous_at_foreign(var),
            HavingFormula::And(a, b) => a.vacuous_at_foreign(var) && b.vacuous_at_foreign(var),
            HavingFormula::Or(a, b) => a.vacuous_at_foreign(var) || b.vacuous_at_foreign(var),
            _ => false,
        }
    }
}

/// Variables of the pattern not bound in the environment, in first-seen
/// order.
fn free_value_vars(atoms: &[Atom], env: &Env) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for atom in atoms {
        for term in atom.terms() {
            if let QueryTerm::Var(v) = term {
                if !env.values.contains_key(v) && !out.contains(v) {
                    out.push(v.clone());
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod restriction_safety_tests {
    use super::*;

    fn iri(s: &str) -> Iri {
        Iri::new(format!("http://x/{s}"))
    }

    fn graph(state: &str, subject: &str) -> HavingFormula {
        HavingFormula::Graph {
            state: state.into(),
            atoms: vec![Atom::Property {
                property: iri("hasValue"),
                subject: QueryTerm::var(subject),
                object: QueryTerm::var("x"),
            }],
        }
    }

    #[test]
    fn guarded_exists_is_safe() {
        let f = HavingFormula::Exists {
            state_vars: vec!["k".into()],
            body: Box::new(HavingFormula::And(
                Box::new(graph("k", "c")),
                Box::new(HavingFormula::Cmp {
                    left: QueryTerm::var("x"),
                    op: CmpOp::Ge,
                    right: QueryTerm::Const(Term::Literal(optique_rdf::Literal::integer(90))),
                }),
            )),
        };
        assert!(f.restriction_safe());
    }

    #[test]
    fn unguarded_exists_is_unsafe() {
        // A witness state need not match any graph pattern: a foreign
        // state could be the witness.
        let f = HavingFormula::Exists {
            state_vars: vec!["k".into()],
            body: Box::new(HavingFormula::True),
        };
        assert!(!f.restriction_safe());
        // An IF body escapes through ¬cond: also no guard.
        let via_if = HavingFormula::Exists {
            state_vars: vec!["k".into()],
            body: Box::new(HavingFormula::If {
                cond: Box::new(graph("k", "c")),
                then: Box::new(HavingFormula::True),
            }),
        };
        assert!(!via_if.restriction_safe());
    }

    #[test]
    fn negation_is_unsafe_anywhere() {
        let f = HavingFormula::Exists {
            state_vars: vec!["k".into()],
            body: Box::new(HavingFormula::And(
                Box::new(graph("k", "c")),
                Box::new(HavingFormula::Not(Box::new(graph("k", "c")))),
            )),
        };
        assert!(!f.restriction_safe());
    }

    #[test]
    fn forall_needs_a_guarding_condition() {
        // The classical safe shape: IF cond guards every quantified state
        // var → vacuous at foreign states.
        let safe = HavingFormula::Forall {
            state_vars: vec!["i".into(), "j".into()],
            value_vars: vec!["x".into()],
            body: Box::new(HavingFormula::If {
                cond: Box::new(HavingFormula::And(
                    Box::new(graph("i", "c")),
                    Box::new(graph("j", "c")),
                )),
                then: Box::new(HavingFormula::True),
            }),
        };
        assert!(safe.restriction_safe());
        // A condition guarding only one var leaves real obligations at
        // foreign assignments of the other (a trivially-true consequent
        // would still be vacuous — so use a comparison).
        let unsafe_forall = HavingFormula::Forall {
            state_vars: vec!["i".into(), "j".into()],
            value_vars: vec![],
            body: Box::new(HavingFormula::If {
                cond: Box::new(graph("i", "c")),
                then: Box::new(HavingFormula::Graph {
                    state: "j".into(),
                    atoms: vec![Atom::Class {
                        class: iri("Ok"),
                        arg: QueryTerm::var("c"),
                    }],
                }),
            }),
        };
        assert!(!unsafe_forall.restriction_safe());
    }

    #[test]
    fn or_guards_only_when_both_branches_guard() {
        let both = HavingFormula::Exists {
            state_vars: vec!["k".into()],
            body: Box::new(HavingFormula::Or(
                Box::new(graph("k", "c")),
                Box::new(graph("k", "d")),
            )),
        };
        assert!(both.restriction_safe());
        let one = HavingFormula::Exists {
            state_vars: vec!["k".into()],
            body: Box::new(HavingFormula::Or(
                Box::new(graph("k", "c")),
                Box::new(HavingFormula::True),
            )),
        };
        assert!(!one.restriction_safe());
    }

    #[test]
    fn graph_subjects_collects_all_positions() {
        let f = HavingFormula::And(
            Box::new(graph("k", "c")),
            Box::new(HavingFormula::Graph {
                state: "k".into(),
                atoms: vec![Atom::Class {
                    class: iri("Failure"),
                    arg: QueryTerm::Const(Term::iri("http://x/sensor/7")),
                }],
            }),
        );
        let subjects = f.graph_subjects();
        assert_eq!(subjects.len(), 2);
        assert!(subjects
            .iter()
            .any(|s| matches!(s, QueryTerm::Var(v) if v == "c")));
        assert!(subjects.iter().any(|s| matches!(s, QueryTerm::Const(_))));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequence::{State, StateSequence};
    use optique_rdf::{Graph, Iri, Literal, Triple};
    use std::sync::Arc;

    fn iri(s: &str) -> Iri {
        Iri::new(format!("http://x/{s}"))
    }

    fn sensor(n: u32) -> Term {
        Term::iri(format!("http://x/sensor/{n}"))
    }

    /// Sequence of 4 states: sensor 1's value rises 70, 75, 80 then shows a
    /// failure; sensor 2 falls.
    fn rising_sequence() -> StateSequence {
        let mut states = Vec::new();
        for (t, (v1, v2)) in [(70.0, 90.0), (75.0, 85.0), (80.0, 80.0)]
            .iter()
            .enumerate()
        {
            let mut g = Graph::new();
            g.insert(Triple::new(
                sensor(1),
                iri("hasValue"),
                Term::Literal(Literal::double(*v1)),
            ));
            g.insert(Triple::new(
                sensor(2),
                iri("hasValue"),
                Term::Literal(Literal::double(*v2)),
            ));
            states.push(Arc::new(State {
                timestamp: t as i64 * 1000,
                graph: g,
            }));
        }
        let mut g = Graph::new();
        g.insert(Triple::class_assertion(sensor(1), iri("showsFailure")));
        states.push(Arc::new(State {
            timestamp: 3000,
            graph: g,
        }));
        StateSequence { states }
    }

    /// The Figure 1 monotonicity formula for a given sensor.
    fn monotonic_formula(sensor_var: &str) -> HavingFormula {
        let graph_failure = HavingFormula::Graph {
            state: "k".into(),
            atoms: vec![Atom::class(iri("showsFailure"), QueryTerm::var(sensor_var))],
        };
        let cond = HavingFormula::And(
            Box::new(HavingFormula::StateLess {
                left: vec!["i".into(), "j".into()],
                right: "k".into(),
            }),
            Box::new(HavingFormula::And(
                Box::new(HavingFormula::Graph {
                    state: "i".into(),
                    atoms: vec![Atom::property(
                        iri("hasValue"),
                        QueryTerm::var(sensor_var),
                        QueryTerm::var("x"),
                    )],
                }),
                Box::new(HavingFormula::Graph {
                    state: "j".into(),
                    atoms: vec![Atom::property(
                        iri("hasValue"),
                        QueryTerm::var(sensor_var),
                        QueryTerm::var("y"),
                    )],
                }),
            )),
        );
        let implication = HavingFormula::If {
            cond: Box::new(cond),
            then: Box::new(HavingFormula::Cmp {
                left: QueryTerm::var("x"),
                op: CmpOp::Le,
                right: QueryTerm::var("y"),
            }),
        };
        // NOTE: ?i < ?j ordering is enforced via StateLess in the antecedent
        // together with i,j < k; the original formula's `?i < ?j` is added:
        let ordered = HavingFormula::If {
            cond: Box::new(HavingFormula::And(
                Box::new(HavingFormula::StateLess {
                    left: vec!["i".into()],
                    right: "j".into(),
                }),
                match implication.clone() {
                    HavingFormula::If { cond, .. } => cond,
                    _ => unreachable!(),
                },
            )),
            then: Box::new(HavingFormula::Cmp {
                left: QueryTerm::var("x"),
                op: CmpOp::Le,
                right: QueryTerm::var("y"),
            }),
        };
        HavingFormula::Exists {
            state_vars: vec!["k".into()],
            body: Box::new(HavingFormula::And(
                Box::new(graph_failure),
                Box::new(HavingFormula::Forall {
                    state_vars: vec!["i".into(), "j".into()],
                    value_vars: vec!["x".into(), "y".into()],
                    body: Box::new(ordered),
                }),
            )),
        }
    }

    fn env_with_sensor(n: u32) -> Env {
        let mut env = Env::default();
        env.values.insert("c".into(), sensor(n));
        env
    }

    #[test]
    fn monotonic_rise_detected() {
        let seq = rising_sequence();
        let formula = monotonic_formula("c");
        assert!(formula.eval(&seq, &env_with_sensor(1)).unwrap());
    }

    #[test]
    fn falling_sensor_rejected() {
        // Sensor 2 falls and shows no failure: EXISTS fails already.
        let seq = rising_sequence();
        let formula = monotonic_formula("c");
        assert!(!formula.eval(&seq, &env_with_sensor(2)).unwrap());
    }

    #[test]
    fn failure_without_monotonicity_rejected() {
        // Rearrange: sensor 1 falls then fails — FORALL must reject.
        let mut seq = rising_sequence();
        seq.states.swap(0, 2); // values now 80, 75, 70, then failure
        let formula = monotonic_formula("c");
        assert!(!formula.eval(&seq, &env_with_sensor(1)).unwrap());
    }

    #[test]
    fn empty_sequence_has_no_witness() {
        let seq = StateSequence { states: vec![] };
        let formula = monotonic_formula("c");
        assert!(!formula.eval(&seq, &env_with_sensor(1)).unwrap());
    }

    #[test]
    fn vacuous_forall_is_true() {
        let seq = rising_sequence();
        // FORALL over a pattern that never matches.
        let f = HavingFormula::Forall {
            state_vars: vec!["i".into()],
            value_vars: vec!["x".into()],
            body: Box::new(HavingFormula::If {
                cond: Box::new(HavingFormula::Graph {
                    state: "i".into(),
                    atoms: vec![Atom::property(
                        iri("noSuchProp"),
                        QueryTerm::var("c"),
                        QueryTerm::var("x"),
                    )],
                }),
                then: Box::new(HavingFormula::Cmp {
                    left: QueryTerm::var("x"),
                    op: CmpOp::Lt,
                    right: QueryTerm::var("x"),
                }),
            }),
        };
        assert!(f.eval(&seq, &env_with_sensor(1)).unwrap());
    }

    #[test]
    fn cmp_numeric_semantics() {
        let seq = StateSequence { states: vec![] };
        let f = HavingFormula::Cmp {
            left: QueryTerm::Const(Term::Literal(Literal::integer(2))),
            op: CmpOp::Lt,
            right: QueryTerm::Const(Term::Literal(Literal::double(2.5))),
        };
        assert!(f.eval(&seq, &Env::default()).unwrap());
    }

    #[test]
    fn unbound_variable_is_an_error() {
        let seq = rising_sequence();
        let f = HavingFormula::Cmp {
            left: QueryTerm::var("nope"),
            op: CmpOp::Eq,
            right: QueryTerm::var("nope"),
        };
        assert!(f.eval(&seq, &Env::default()).is_err());
    }

    #[test]
    fn macro_expansion_substitutes_params() {
        use crate::ast::AggregateDef;
        let def = AggregateDef {
            namespace: "M".into(),
            name: "TEST".into(),
            params: vec!["var".into(), "attr".into()],
            body: ProtoFormula::Exists {
                state_vars: vec!["k".into()],
                body: Box::new(ProtoFormula::Graph {
                    state: "k".into(),
                    atoms: vec![ProtoAtom {
                        subject: ProtoTerm::Param("var".into()),
                        predicate: ProtoPred::Param("attr".into()),
                        object: Some(ProtoTerm::Var("x".into())),
                    }],
                }),
            },
        };
        let call = ProtoFormula::MacroCall {
            namespace: "M".into(),
            name: "TEST".into(),
            args: vec![
                ProtoTerm::Var("c".into()),
                ProtoTerm::Const(Term::Iri(iri("hasValue"))),
            ],
        };
        let expanded = expand(&call, &[def]).unwrap();
        let HavingFormula::Exists { body, .. } = expanded else {
            panic!()
        };
        let HavingFormula::Graph { atoms, .. } = *body else {
            panic!()
        };
        assert_eq!(
            atoms[0],
            Atom::property(iri("hasValue"), QueryTerm::var("c"), QueryTerm::var("x"))
        );
    }

    #[test]
    fn unknown_macro_is_an_error() {
        let call = ProtoFormula::MacroCall {
            namespace: "NO".into(),
            name: "PE".into(),
            args: vec![],
        };
        assert!(expand(&call, &[]).is_err());
    }

    fn agg_formula(func: AggFunc, op: CmpOp, threshold: f64) -> HavingFormula {
        HavingFormula::Agg {
            func,
            subject: QueryTerm::var("c"),
            property: iri("hasValue"),
            op,
            threshold: QueryTerm::Const(Term::Literal(Literal::double(threshold))),
        }
    }

    fn agg_ctx() -> AggContext {
        let mut acc = AggAcc::default();
        for v in [70.0, 75.0, 80.0] {
            acc.observe(&optique_relational::Value::Float(v)).unwrap();
        }
        let mut ctx = AggContext::new();
        ctx.insert(sensor(1), acc);
        ctx
    }

    #[test]
    fn agg_atoms_evaluate_against_the_context() {
        let seq = StateSequence { states: vec![] };
        let ctx = agg_ctx();
        let env = env_with_sensor(1);
        let cases = [
            (AggFunc::Sum, CmpOp::Ge, 225.0, true),
            (AggFunc::Sum, CmpOp::Gt, 225.0, false),
            (AggFunc::Count, CmpOp::Eq, 3.0, true),
            (AggFunc::Avg, CmpOp::Eq, 75.0, true),
            (AggFunc::Min, CmpOp::Eq, 70.0, true),
            (AggFunc::Max, CmpOp::Eq, 80.0, true),
        ];
        for (func, op, t, expect) in cases {
            let f = agg_formula(func, op, t);
            assert_eq!(
                f.eval_with(&seq, &env, Some(&ctx)).unwrap(),
                expect,
                "{func:?} {op:?} {t}"
            );
        }
    }

    #[test]
    fn missing_group_counts_zero_and_fails_other_aggregates() {
        let seq = StateSequence { states: vec![] };
        let ctx = agg_ctx();
        let env = env_with_sensor(2); // no group for sensor 2
        assert!(agg_formula(AggFunc::Count, CmpOp::Eq, 0.0)
            .eval_with(&seq, &env, Some(&ctx))
            .unwrap());
        for func in [AggFunc::Sum, AggFunc::Avg, AggFunc::Min, AggFunc::Max] {
            assert!(
                !agg_formula(func, CmpOp::Ge, -1e18)
                    .eval_with(&seq, &env, Some(&ctx))
                    .unwrap(),
                "{func:?} over an empty group must not satisfy any comparison"
            );
        }
    }

    #[test]
    fn agg_without_context_is_an_error() {
        let seq = StateSequence { states: vec![] };
        assert!(agg_formula(AggFunc::Sum, CmpOp::Ge, 0.0)
            .eval(&seq, &env_with_sensor(1))
            .is_err());
    }

    #[test]
    fn agg_combines_with_connectives_and_graph_atoms() {
        let seq = rising_sequence();
        let ctx = agg_ctx();
        let env = env_with_sensor(1);
        // AND with a graph pattern: both sides must hold.
        let combo = HavingFormula::And(
            Box::new(HavingFormula::Exists {
                state_vars: vec!["k".into()],
                body: Box::new(HavingFormula::Graph {
                    state: "k".into(),
                    atoms: vec![Atom::class(iri("showsFailure"), QueryTerm::var("c"))],
                }),
            }),
            Box::new(agg_formula(AggFunc::Max, CmpOp::Ge, 80.0)),
        );
        assert!(combo.eval_with(&seq, &env, Some(&ctx)).unwrap());
        let failing = HavingFormula::And(
            Box::new(HavingFormula::True),
            Box::new(agg_formula(AggFunc::Max, CmpOp::Gt, 80.0)),
        );
        assert!(!failing.eval_with(&seq, &env, Some(&ctx)).unwrap());
    }

    #[test]
    fn agg_is_restriction_safe_and_reports_its_subject() {
        let f = agg_formula(AggFunc::Sum, CmpOp::Ge, 100.0);
        assert!(f.restriction_safe());
        let subjects = f.graph_subjects();
        assert_eq!(subjects.len(), 1);
        assert!(matches!(subjects[0], QueryTerm::Var(v) if v == "c"));
        // But an aggregate never guards a state variable: EXISTS over an
        // agg-only body stays unsafe.
        let unguarded = HavingFormula::Exists {
            state_vars: vec!["k".into()],
            body: Box::new(agg_formula(AggFunc::Sum, CmpOp::Ge, 100.0)),
        };
        assert!(!unguarded.restriction_safe());
    }

    #[test]
    fn agg_expands_through_macros() {
        use crate::ast::AggregateDef;
        let def = AggregateDef {
            namespace: "THRESH".into(),
            name: "SUMGE".into(),
            params: vec!["var".into(), "attr".into()],
            body: ProtoFormula::Agg {
                func: AggFunc::Sum,
                subject: ProtoTerm::Param("var".into()),
                property: ProtoPred::Param("attr".into()),
                op: CmpOp::Ge,
                threshold: ProtoTerm::Const(Term::Literal(Literal::integer(100))),
            },
        };
        let call = ProtoFormula::MacroCall {
            namespace: "THRESH".into(),
            name: "SUMGE".into(),
            args: vec![
                ProtoTerm::Var("c".into()),
                ProtoTerm::Const(Term::Iri(iri("hasValue"))),
            ],
        };
        let HavingFormula::Agg {
            func,
            subject,
            property,
            ..
        } = expand(&call, &[def]).unwrap()
        else {
            panic!()
        };
        assert_eq!(func, AggFunc::Sum);
        assert_eq!(subject, QueryTerm::var("c"));
        assert_eq!(property, iri("hasValue"));
    }

    #[test]
    fn unary_pattern_expands_to_class_atom() {
        let proto = ProtoFormula::Graph {
            state: "k".into(),
            atoms: vec![ProtoAtom {
                subject: ProtoTerm::Var("c".into()),
                predicate: ProtoPred::Iri(iri("showsFailure")),
                object: None,
            }],
        };
        let HavingFormula::Graph { atoms, .. } = expand(&proto, &[]).unwrap() else {
            panic!()
        };
        assert!(matches!(&atoms[0], Atom::Class { .. }));
    }
}
