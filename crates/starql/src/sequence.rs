//! `StdSeq` sequencing semantics: window contents → a sequence of RDF
//! states.
//!
//! STARQL "extends snapshot semantics for window operators [1] with
//! sequencing semantics that can handle integrity constraints such as
//! functionality assertions". `StdSeq` (the *standard sequence*) groups the
//! window's tuples by timestamp; each group becomes one **state** — a small
//! RDF graph produced by the stream-to-RDF mapping — and states are ordered
//! by time. Functionality constraints from the ontology are checked per
//! state: a sensor reporting two different values at one instant violates
//! `funct(hasValue)`.
//!
//! A state depends only on the rows at its instant, so consecutive windows
//! of one query — and the windows of every query on the same stream —
//! rebuild the same states over and over. [`StateMemo`] keeps each built,
//! checked and enriched state once, as a shared `Arc`, keyed by instant and
//! validated against the exact rows it was built from: a late row, a
//! key-restricted window or a different overlay epoch presents different
//! rows and gets its own entry. [`build_stdseq`] is the memo-free reference
//! construction.

use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use optique_ontology::materialize::{check_constraints, materialize, Violation};
use optique_ontology::Ontology;
use optique_rdf::{Datatype, Graph, Iri, Term, Triple};
use optique_relational::{Schema, Value};

use optique_mapping::IriTemplate;

/// How one stream tuple becomes RDF triples inside a state.
///
/// This is the stream-side mapping of the deployment: the measurement
/// stream's columns are mapped to a subject IRI (via a template over the
/// sensor-id column), a value property, and optionally an event column whose
/// values denote class memberships (e.g. `"failure"` ↦ `sie:showsFailure`).
#[derive(Clone, Debug)]
pub struct StreamToRdf {
    /// Name of the timestamp column.
    pub timestamp_col: String,
    /// Template minting the subject IRI from the sensor-id column.
    pub subject: IriTemplate,
    /// The value property (e.g. `sie:hasValue`).
    pub value_property: Iri,
    /// Name of the value column.
    pub value_col: String,
    /// Datatype of emitted value literals.
    pub value_datatype: Datatype,
    /// Optional event column: `(column name, value → class)` pairs.
    pub event_col: Option<String>,
    /// Event lexical value → class IRI.
    pub event_classes: Vec<(String, Iri)>,
}

impl StreamToRdf {
    /// Emits the triples of one tuple (may be empty if the value is NULL and
    /// no event fires).
    pub fn tuple_triples(&self, row: &[Value], schema: &Schema) -> Vec<Triple> {
        let mut out = Vec::new();
        let Some(subj_idx) = schema.index_of(self.subject.column()) else {
            return out;
        };
        let subj_val = &row[subj_idx];
        if subj_val.is_null() {
            return out;
        }
        let subject = Term::iri(self.subject.render(subj_val));
        if let Some(value_idx) = schema.index_of(&self.value_col) {
            if let Some(lit) =
                optique_mapping::virtualize::value_to_literal(&row[value_idx], self.value_datatype)
            {
                out.push(Triple::new(
                    subject.clone(),
                    self.value_property.clone(),
                    Term::Literal(lit),
                ));
            }
        }
        if let Some(event_col) = &self.event_col {
            if let Some(event_idx) = schema.index_of(event_col) {
                if let Some(event) = row[event_idx].as_str() {
                    for (lexical, class) in &self.event_classes {
                        if lexical == event {
                            out.push(Triple::class_assertion(subject.clone(), class.clone()));
                        }
                    }
                }
            }
        }
        out
    }
}

/// One state: an instant and the RDF graph of the tuples at that instant.
#[derive(Clone, Debug)]
pub struct State {
    /// The state's timestamp.
    pub timestamp: i64,
    /// The state's ABox.
    pub graph: Graph,
}

/// A time-ordered sequence of states (the denotation of `SEQUENCE BY StdSeq`
/// for one window). States are shared: consecutive windows and co-registered
/// queries hold the same `Arc`s out of a [`StateMemo`].
#[derive(Clone, Debug, Default)]
pub struct StateSequence {
    /// States in ascending timestamp order.
    pub states: Vec<Arc<State>>,
}

impl StateSequence {
    /// Number of states.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// True when the window produced no states.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }
}

/// What to do with states violating integrity constraints.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IcPolicy {
    /// Violations abort the window's evaluation (strict certain-answer mode).
    Strict,
    /// Violating states are dropped; evaluation continues (the demo's
    /// pragmatic mode for dirty sensor data).
    DropViolating,
}

/// Errors from sequence construction.
#[derive(Debug, Clone)]
pub enum SequenceError {
    /// A state violated constraints under [`IcPolicy::Strict`].
    IntegrityViolation {
        /// Timestamp of the violating state.
        timestamp: i64,
        /// The violations found.
        violations: Vec<Violation>,
    },
}

impl std::fmt::Display for SequenceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SequenceError::IntegrityViolation {
                timestamp,
                violations,
            } => write!(
                f,
                "state at {timestamp} violates {} integrity constraint(s)",
                violations.len()
            ),
        }
    }
}

impl std::error::Error for SequenceError {}

/// Builds the standard sequence from window rows.
///
/// Rows are grouped by the timestamp column; each group's triples (via
/// `mapping`) form the state graph. When `ontology` is given, each state is
/// checked against its functionality/disjointness constraints under
/// `policy`.
pub fn build_stdseq(
    rows: &[Vec<Value>],
    schema: &Schema,
    mapping: &StreamToRdf,
    ontology: Option<&Ontology>,
    policy: IcPolicy,
) -> Result<(StateSequence, usize), SequenceError> {
    assemble(rows, schema, mapping, policy, |timestamp, group| {
        build_state(timestamp, group, schema, mapping, ontology, false)
    })
}

/// The state of one instant's rows: its graph, or the constraint
/// violations that rule it out. Enrichment saturates only kept states.
#[derive(Clone, Debug)]
enum Built {
    Kept(Arc<State>),
    Violates(Vec<Violation>),
}

fn build_state(
    timestamp: i64,
    group: &[&Vec<Value>],
    schema: &Schema,
    mapping: &StreamToRdf,
    ontology: Option<&Ontology>,
    enrich: bool,
) -> Built {
    let mut graph = Graph::new();
    for row in group {
        graph.extend(mapping.tuple_triples(row, schema));
    }
    if let Some(onto) = ontology {
        let violations = check_constraints(&graph, onto);
        if !violations.is_empty() {
            return Built::Violates(violations);
        }
        if enrich {
            materialize(&mut graph, onto, 0);
        }
    }
    Built::Kept(Arc::new(State { timestamp, graph }))
}

/// Groups rows by instant, gets each group's state from `state_of`, and
/// applies the integrity policy in time order.
fn assemble(
    rows: &[Vec<Value>],
    schema: &Schema,
    mapping: &StreamToRdf,
    policy: IcPolicy,
    mut state_of: impl FnMut(i64, &[&Vec<Value>]) -> Built,
) -> Result<(StateSequence, usize), SequenceError> {
    let Some(ts_idx) = schema.index_of(&mapping.timestamp_col) else {
        return Ok((StateSequence::default(), 0));
    };
    let mut by_time: BTreeMap<i64, Vec<&Vec<Value>>> = BTreeMap::new();
    for row in rows {
        if let Some(ts) = row[ts_idx].as_i64() {
            by_time.entry(ts).or_default().push(row);
        }
    }
    let mut states = Vec::with_capacity(by_time.len());
    let mut dropped = 0usize;
    for (timestamp, group) in by_time {
        match state_of(timestamp, &group) {
            Built::Kept(state) => states.push(state),
            Built::Violates(violations) => match policy {
                IcPolicy::Strict => {
                    return Err(SequenceError::IntegrityViolation {
                        timestamp,
                        violations,
                    })
                }
                IcPolicy::DropViolating => dropped += 1,
            },
        }
    }
    Ok((StateSequence { states }, dropped))
}

/// Built per-instant states shared across windows and queries (see the
/// module docs). Entries live per stream and per *state configuration* —
/// a fingerprint of the stream mapping, the TBox and whether states are
/// enriched ([`state_config`]) — so only queries that would build
/// identical states share them. The owner bounds the memo with
/// [`StateMemo::retire`].
#[derive(Default)]
pub struct StateMemo {
    streams: Mutex<HashMap<String, StreamStates>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// One stream's memo: `(config, instant)` → the states built from each
/// distinct row set seen at that instant.
type StreamStates = HashMap<(u64, i64), Vec<MemoEntry>>;

struct MemoEntry {
    /// The rows the state was built from, in the order first seen.
    rows: Vec<Vec<Value>>,
    built: Built,
}

impl MemoEntry {
    fn built_from(&self, group: &[&Vec<Value>]) -> bool {
        if self.rows.len() != group.len() {
            return false;
        }
        if self.rows.iter().zip(group).all(|(a, b)| a == *b) {
            return true;
        }
        // The same rows in another order (a scatter round gathers shards
        // in shard order) build the same state.
        let mut mine: Vec<&Vec<Value>> = self.rows.iter().collect();
        let mut theirs = group.to_vec();
        mine.sort();
        theirs.sort();
        mine == theirs
    }
}

/// Fingerprint of everything a state depends on besides its rows: the
/// stream, its mapping, the TBox and the enrichment switch.
pub fn state_config(stream: &str, mapping: &StreamToRdf, ontology: &Ontology, enrich: bool) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    stream.hash(&mut h);
    format!("{mapping:?}").hash(&mut h);
    ontology.axioms().hash(&mut h);
    for property in ontology.data_properties() {
        property.hash(&mut h);
    }
    enrich.hash(&mut h);
    h.finish()
}

impl StateMemo {
    /// An empty memo.
    pub fn new() -> Self {
        StateMemo::default()
    }

    /// The standard sequence of `rows` — [`build_stdseq`] followed by
    /// enrichment of every kept state when `enrich` is set — with each
    /// instant's state taken from the memo when the same rows built it
    /// before. `config` must be [`state_config`] of this stream, mapping,
    /// ontology and `enrich`.
    #[allow(clippy::too_many_arguments)]
    pub fn sequence(
        &self,
        stream: &str,
        config: u64,
        rows: &[Vec<Value>],
        schema: &Schema,
        mapping: &StreamToRdf,
        ontology: &Ontology,
        policy: IcPolicy,
        enrich: bool,
    ) -> Result<(StateSequence, usize), SequenceError> {
        assemble(rows, schema, mapping, policy, |timestamp, group| {
            let key = (config, timestamp);
            {
                let streams = self.streams.lock().expect("state memo poisoned");
                let hit = streams
                    .get(stream)
                    .and_then(|states| states.get(&key))
                    .and_then(|entries| entries.iter().find(|e| e.built_from(group)));
                if let Some(entry) = hit {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return entry.built.clone();
                }
            }
            self.misses.fetch_add(1, Ordering::Relaxed);
            let built = build_state(timestamp, group, schema, mapping, Some(ontology), enrich);
            let mut streams = self.streams.lock().expect("state memo poisoned");
            let entries = streams
                .entry(stream.to_string())
                .or_default()
                .entry(key)
                .or_default();
            if !entries.iter().any(|e| e.built_from(group)) {
                entries.push(MemoEntry {
                    rows: group.iter().map(|row| (*row).clone()).collect(),
                    built: built.clone(),
                });
            }
            built
        })
    }

    /// Drops every state of `stream` at or before `through_ms` — instants
    /// no registered query's future windows can contain.
    pub fn retire(&self, stream: &str, through_ms: i64) {
        let mut streams = self.streams.lock().expect("state memo poisoned");
        if let Some(states) = streams.get_mut(stream) {
            states.retain(|&(_, ts), _| ts > through_ms);
        }
    }

    /// Memoized states across all streams.
    pub fn len(&self) -> usize {
        self.streams
            .lock()
            .expect("state memo poisoned")
            .values()
            .flat_map(|states| states.values())
            .map(Vec::len)
            .sum()
    }

    /// True when nothing is memoized.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// States answered from the memo so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// States built so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for StateMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "StateMemo({} states, {} hits, {} misses)",
            self.len(),
            self.hits(),
            self.misses()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optique_ontology::{Axiom, Role};
    use optique_relational::{Column, ColumnType};

    fn iri(s: &str) -> Iri {
        Iri::new(format!("http://x/{s}"))
    }

    fn schema() -> Schema {
        Schema::qualified(
            "S_Msmt",
            vec![
                Column::new("ts", ColumnType::Timestamp),
                Column::new("sensor_id", ColumnType::Int),
                Column::new("value", ColumnType::Float),
                Column::new("event", ColumnType::Text),
            ],
        )
    }

    fn mapping() -> StreamToRdf {
        StreamToRdf {
            timestamp_col: "ts".into(),
            subject: IriTemplate::parse("http://x/sensor/{sensor_id}").unwrap(),
            value_property: iri("hasValue"),
            value_col: "value".into(),
            value_datatype: Datatype::Double,
            event_col: Some("event".into()),
            event_classes: vec![("failure".into(), iri("showsFailure"))],
        }
    }

    fn row(ts: i64, sensor: i64, value: f64, event: Option<&str>) -> Vec<Value> {
        vec![
            Value::Timestamp(ts),
            Value::Int(sensor),
            Value::Float(value),
            event.map(Value::text).unwrap_or(Value::Null),
        ]
    }

    #[test]
    fn states_group_by_timestamp() {
        let rows = vec![
            row(1000, 1, 70.0, None),
            row(1000, 2, 60.0, None),
            row(2000, 1, 75.0, None),
        ];
        let (seq, dropped) =
            build_stdseq(&rows, &schema(), &mapping(), None, IcPolicy::Strict).unwrap();
        assert_eq!(seq.len(), 2);
        assert_eq!(dropped, 0);
        assert_eq!(seq.states[0].timestamp, 1000);
        assert_eq!(
            seq.states[0].graph.len(),
            2,
            "two sensors' values at t=1000"
        );
    }

    #[test]
    fn event_column_emits_class_assertion() {
        let rows = vec![row(1000, 1, 99.0, Some("failure"))];
        let (seq, _) = build_stdseq(&rows, &schema(), &mapping(), None, IcPolicy::Strict).unwrap();
        let g = &seq.states[0].graph;
        assert_eq!(g.len(), 2, "value triple + failure class assertion");
        assert_eq!(g.instances_of(&iri("showsFailure")).len(), 1);
    }

    #[test]
    fn functionality_violation_strict_errors() {
        let mut onto = Ontology::new();
        onto.add_axiom(Axiom::Functional(Role::named(iri("hasValue"))));
        // Same sensor, same instant, two values.
        let rows = vec![row(1000, 1, 70.0, None), row(1000, 1, 71.0, None)];
        let err =
            build_stdseq(&rows, &schema(), &mapping(), Some(&onto), IcPolicy::Strict).unwrap_err();
        assert!(matches!(
            err,
            SequenceError::IntegrityViolation {
                timestamp: 1000,
                ..
            }
        ));
    }

    #[test]
    fn functionality_violation_drop_policy_skips_state() {
        let mut onto = Ontology::new();
        onto.add_axiom(Axiom::Functional(Role::named(iri("hasValue"))));
        let rows = vec![
            row(1000, 1, 70.0, None),
            row(1000, 1, 71.0, None),
            row(2000, 1, 75.0, None),
        ];
        let (seq, dropped) = build_stdseq(
            &rows,
            &schema(),
            &mapping(),
            Some(&onto),
            IcPolicy::DropViolating,
        )
        .unwrap();
        assert_eq!(dropped, 1);
        assert_eq!(seq.len(), 1);
        assert_eq!(seq.states[0].timestamp, 2000);
    }

    #[test]
    fn null_values_emit_no_value_triple() {
        let rows = vec![vec![
            Value::Timestamp(1000),
            Value::Int(1),
            Value::Null,
            Value::Null,
        ]];
        let (seq, _) = build_stdseq(&rows, &schema(), &mapping(), None, IcPolicy::Strict).unwrap();
        assert_eq!(seq.len(), 1);
        assert!(seq.states[0].graph.is_empty());
    }

    #[test]
    fn empty_window_empty_sequence() {
        let (seq, _) = build_stdseq(&[], &schema(), &mapping(), None, IcPolicy::Strict).unwrap();
        assert!(seq.is_empty());
    }
}
