//! The HAVING join evaluator, proven by a **differential oracle**: every
//! catalog HAVING formula and every program shape the streaming and pane
//! generators in `tests/common` emit must evaluate, through the compiled
//! [`HavingPlan`], exactly as the reference enumerator
//! ([`HavingFormula::eval_reference`]) over random state sequences — empty
//! sequences, repeated instants and tied values included.
//!
//! Alongside it, the shared per-instant [`StateMemo`] must assemble the
//! same sequences (and the same `IcPolicy::Strict` errors) as the
//! memo-free `build_stdseq`, while the same instants reappear with late
//! rows and restricted row sets; and a late, out-of-order appended row
//! must reach the later windows that contain it on the time-indexed
//! window-slice paths, single-node and distributed, before and after the
//! overlay merges it out of order into the base table.

mod common;

use std::sync::Arc;

use common::proptest_cases;
use common::streaming;
use optique_mapping::IriTemplate;
use optique_ontology::materialize::materialize;
use optique_ontology::{Axiom, Ontology, Role};
use optique_rdf::{Datatype, Graph, Iri, Literal, Namespaces, Term, Triple};
use optique_relational::{Column, ColumnType, Schema, Value};
use optique_siemens::catalog::TaskQuery;
use optique_starql::having::{expand, AggContext, Env};
use optique_starql::sequence::{build_stdseq, state_config, State, StateSequence};
use optique_starql::{
    parse_starql, HavingFormula, HavingPlan, IcPolicy, StateMemo, StreamToRdf, TickOutput,
};
use proptest::prelude::*;

const SIE: &str = "http://siemens.example/ontology#";
const SENSORS: i64 = 4;

fn sensor(n: i64) -> Term {
    Term::iri(format!("{}sensor/{n}", streaming::DATA))
}

/// Every HAVING formula under test: the catalog's STARQL tasks, then each
/// generated program shape over a spread of window knobs.
fn formulas() -> Vec<(String, HavingFormula)> {
    let mut out = Vec::new();
    let siemens = optique_siemens::ontology::namespaces();
    for task in optique_siemens::diagnostic_tasks() {
        if let TaskQuery::StarQl(text) = &task.query {
            let q = parse_starql(text, &siemens).unwrap();
            out.push((task.id.clone(), expand(&q.having, &q.aggregates).unwrap()));
        }
    }
    let ns = Namespaces::with_w3c_defaults();
    // Shapes the generators do not emit: multi-atom patterns joining
    // across subjects, a FORALL without IF, shadowed quantifiers,
    // disjunction and negation under a quantifier, an unread quantified
    // state, and a top-level FORALL.
    for having in [
        "EXISTS ?k IN seq: GRAPH ?k { ?c2 sie:hasValue ?x . ?c2 sie:showsFailure }",
        "EXISTS ?i, ?j IN seq: ?i < ?j AND GRAPH ?i { ?c2 sie:hasValue ?x . ?c3 sie:hasValue ?x } \
         AND GRAPH ?j { ?c3 sie:showsFailure }",
        "FORALL ?i IN seq: GRAPH ?i { ?c2 sie:hasValue ?v }",
        "EXISTS ?k IN seq: GRAPH ?k { ?c2 sie:hasValue ?x } AND \
         EXISTS ?k IN seq: GRAPH ?k { ?c2 sie:hasValue ?y } AND ?y > ?x",
        "EXISTS ?k IN seq: GRAPH ?k { ?c2 sie:showsFailure } OR NOT GRAPH ?k { ?c2 sie:hasValue ?v }",
        "EXISTS ?k IN seq: ?c2 = ?c2",
        "FORALL ?i < ?j IN seq, ?x, ?y: \
         IF ( GRAPH ?i { ?c2 sie:hasValue ?x } AND GRAPH ?j { ?c2 sie:hasValue ?y } ) THEN ?x <= ?y",
    ] {
        let text = format!(
            "PREFIX sie: <{SIE}>\nPREFIX : <{SIE}>\nCREATE STREAM S_out AS\n\
             CONSTRUCT GRAPH NOW {{ ?c2 a :Odd }}\n\
             FROM STREAM S_Msmt [NOW-\"PT10S\"^^xsd:duration, NOW]->\"PT1S\"^^xsd:duration\n\
             WHERE {{ ?c1 sie:inAssembly ?c2 }}\nSEQUENCE BY StdSeq AS seq\nHAVING {having}"
        );
        let q = parse_starql(&text, &ns).unwrap_or_else(|e| panic!("{having}: {e}"));
        out.push((having.to_string(), expand(&q.having, &q.aggregates).unwrap()));
    }
    for shape in 0..7 {
        for knob in [0, 7, 25] {
            for text in [
                streaming::program(shape, 10, 1, true, knob),
                streaming::agg_program(shape, "", 10, 1, true, knob),
            ] {
                let q = parse_starql(&text, &ns).unwrap();
                out.push((text, expand(&q.having, &q.aggregates).unwrap()));
            }
        }
    }
    out
}

/// One generated state: per sensor an optional value and a failure flag.
type StateSpec = (i64, Vec<(Option<u8>, bool)>);

fn sequence_of(specs: &[StateSpec]) -> StateSequence {
    let has_value = Iri::new(format!("{SIE}hasValue"));
    let fails = Iri::new(format!("{SIE}showsFailure"));
    let states = specs
        .iter()
        .map(|(timestamp, readings)| {
            let mut graph = Graph::new();
            for (n, (value, failure)) in readings.iter().enumerate() {
                if let Some(v) = value {
                    // A coarse value grid: ties across states are common.
                    let v = f64::from(*v) * 20.0;
                    graph.insert(Triple::new(
                        sensor(n as i64),
                        has_value.clone(),
                        Term::Literal(Literal::double(v)),
                    ));
                }
                if *failure {
                    graph.insert(Triple::class_assertion(sensor(n as i64), fails.clone()));
                }
            }
            Arc::new(State {
                timestamp: *timestamp,
                graph,
            })
        })
        .collect();
    StateSequence { states }
}

/// Per-sensor window aggregates over the sequence's values.
fn agg_context(specs: &[StateSpec]) -> AggContext {
    let mut ctx = AggContext::new();
    for (_, readings) in specs {
        for (n, (value, _)) in readings.iter().enumerate() {
            if let Some(v) = value {
                ctx.entry(sensor(n as i64))
                    .or_default()
                    .observe(&Value::Float(f64::from(*v) * 20.0))
                    .unwrap();
            }
        }
    }
    ctx
}

/// Environments the engine evaluates under: each sensor bound as `?c2`,
/// alone and with an assembly `?c1`.
fn envs() -> Vec<Env> {
    let mut out = Vec::new();
    for n in 0..SENSORS {
        let mut env = Env::default();
        env.values.insert("c2".into(), sensor(n));
        out.push(env.clone());
        env.values.insert(
            "c1".into(),
            Term::iri(format!("{}assembly/0", streaming::DATA)),
        );
        out.push(env);
    }
    out
}

fn assert_plans_match_reference(specs: &[StateSpec]) {
    let seq = sequence_of(specs);
    let ctx = agg_context(specs);
    for (name, formula) in formulas() {
        for env in envs() {
            let plan = HavingPlan::compile(&formula, env.values.keys(), env.states.keys())
                .unwrap_or_else(|e| panic!("{name}: compile failed: {e}"));
            let joined = plan.eval(&seq, &env, Some(&ctx));
            let reference = formula.eval_reference(&seq, &env, Some(&ctx));
            assert_eq!(
                joined, reference,
                "{name}\nunder {:?}\nover {specs:?}",
                env.values
            );
        }
    }
}

fn state_spec() -> impl Strategy<Value = StateSpec> {
    (
        0i64..3,
        proptest::collection::vec(
            // Values 6 and 7 leave the sensor silent; 3 in 20 states fail.
            (0u8..8, 0u8..20).prop_map(|(v, f)| ((v < 6).then_some(v), f < 3)),
            SENSORS as usize,
        ),
    )
}

/// Specs with nondecreasing instants: a step of 0 repeats the previous
/// instant (a tie in state order).
fn sequence_spec() -> impl Strategy<Value = Vec<StateSpec>> {
    proptest::collection::vec(state_spec(), 0..14).prop_map(|mut specs| {
        let mut t = 600_000;
        for (step, _) in specs.iter_mut() {
            t += *step * 1_000;
            *step = t;
        }
        specs
    })
}

// ---- the state memo ------------------------------------------------------

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

/// The streaming fixture's stream-to-RDF mapping.
fn mapping() -> StreamToRdf {
    StreamToRdf {
        timestamp_col: "ts".into(),
        subject: IriTemplate::parse(&format!("{}sensor/{{sensor_id}}", streaming::DATA)).unwrap(),
        value_property: Iri::new(format!("{SIE}hasValue")),
        value_col: "value".into(),
        value_datatype: Datatype::Double,
        event_col: Some("event".into()),
        event_classes: vec![("failure".into(), Iri::new(format!("{SIE}showsFailure")))],
    }
}

/// A TBox with a functionality constraint (two values at one instant
/// violate it) and a domain axiom enrichment saturates.
fn ontology() -> Ontology {
    let mut onto = Ontology::new();
    onto.add_axiom(Axiom::Functional(Role::named(Iri::new(format!(
        "{SIE}hasValue"
    )))));
    onto.add_axiom(Axiom::domain(
        Iri::new(format!("{SIE}hasValue")),
        optique_ontology::BasicConcept::atomic(Iri::new(format!("{SIE}Sensor"))),
    ));
    onto
}

/// A sequence as `(instant, sorted triples)` per state, plus the dropped
/// count — or the error's message.
type Canon = Result<(Vec<(i64, Vec<String>)>, usize), String>;

/// Canonical rendering of a sequence or its error.
fn canon(result: Result<(StateSequence, usize), optique_starql::sequence::SequenceError>) -> Canon {
    match result {
        Ok((seq, dropped)) => Ok((
            seq.states
                .iter()
                .map(|s| {
                    let mut triples: Vec<String> = s.graph.iter().map(|t| t.to_string()).collect();
                    triples.sort();
                    (s.timestamp, triples)
                })
                .collect(),
            dropped,
        )),
        Err(e) => Err(e.to_string()),
    }
}

fn reference_sequence(rows: &[Vec<Value>], onto: &Ontology, policy: IcPolicy) -> Canon {
    let built =
        build_stdseq(rows, &schema(), &mapping(), Some(onto), policy).map(|(mut seq, dropped)| {
            for state in &mut seq.states {
                let mut graph = state.graph.clone();
                materialize(&mut graph, onto, 0);
                *state = Arc::new(State {
                    timestamp: state.timestamp,
                    graph,
                });
            }
            (seq, dropped)
        });
    canon(built)
}

fn row(ts: i64, sensor: i64, value: u8, failure: bool) -> Vec<Value> {
    streaming::msmt(ts, sensor, f64::from(value) * 20.0, failure)
}

mod having_equivalence {
    use super::*;

    /// Hand-picked sequences: empty, a single state, all-tied instants and
    /// values, and the Figure 1 rise-then-fail shape.
    #[test]
    fn fixed_sequences_match_the_reference() {
        let tied: Vec<StateSpec> = (0..4)
            .map(|_| (600_000, vec![(Some(2), false); 4]))
            .collect();
        let mut ramp: Vec<StateSpec> = (0..5u8)
            .map(|i| {
                (
                    600_000 + i64::from(i) * 1_000,
                    vec![
                        (Some(i), i == 4),
                        (Some(5 - i), false),
                        (None, false),
                        (Some(0), false),
                    ],
                )
            })
            .collect();
        ramp.push((
            606_000,
            vec![
                (Some(1), false),
                (Some(5), false),
                (None, true),
                (Some(5), false),
            ],
        ));
        for specs in [
            Vec::new(),
            vec![(600_000, vec![(Some(1), true); 4])],
            tied,
            ramp,
        ] {
            assert_plans_match_reference(&specs);
        }
    }

    /// The memo serves each instant's state to later windows, yet late
    /// rows, restricted row sets and reordered rows at a known instant
    /// build (or find) the right state — under both integrity policies,
    /// with `Strict` reporting the same violating instant.
    #[test]
    fn memo_sequences_match_build_stdseq_across_late_and_restricted_rows() {
        let onto = ontology();
        let memo = StateMemo::new();
        let config = state_config("S_Msmt", &mapping(), &onto, true);
        let base: Vec<Vec<Value>> = (0..6)
            .flat_map(|i| {
                (0..3).map(move |s| row(600_000 + i * 1_000, s, (i + s) as u8 % 6, i == 4))
            })
            .collect();
        let mut late = base.clone();
        late.push(row(602_000, 3, 1, false));
        let mut conflicting = late.clone();
        conflicting.push(row(603_000, 0, 5, false));
        let restricted: Vec<Vec<Value>> = base
            .iter()
            .filter(|r| r[1] == Value::Int(1))
            .cloned()
            .collect();
        let mut reordered = base.clone();
        reordered.reverse();
        for policy in [IcPolicy::DropViolating, IcPolicy::Strict] {
            for rows in [&base, &late, &conflicting, &restricted, &reordered, &base] {
                let memoized = canon(memo.sequence(
                    "S_Msmt",
                    config,
                    rows,
                    &schema(),
                    &mapping(),
                    &onto,
                    policy,
                    true,
                ));
                assert_eq!(
                    memoized,
                    reference_sequence(rows, &onto, policy),
                    "{policy:?}"
                );
            }
        }
        assert!(
            memo.hits() > 0,
            "repeated instants were served from the memo"
        );
        let strict = memo.sequence(
            "S_Msmt",
            config,
            &conflicting,
            &schema(),
            &mapping(),
            &onto,
            IcPolicy::Strict,
            true,
        );
        assert!(
            strict.is_err(),
            "two values at 603 s violate funct(hasValue)"
        );
    }

    /// A late row appended after later batches lands in every later window
    /// that contains it — through the time-indexed local slice and the
    /// narrowed window fragments at 2 workers, before and after a merge
    /// folds it out of order into the base table — exactly as on a
    /// platform that held every row from the start.
    #[test]
    fn late_rows_reach_later_windows_on_every_slice_path() {
        let text = streaming::program(2, 10, 1, true, 0); // failure events
        let rows = streaming::ramp_stream();
        let (early, on_time): (Vec<_>, Vec<_>) = rows
            .into_iter()
            .partition(|r| r[0].as_i64().unwrap() <= 606_000);
        // Sensor 3 never fails on the ramp; its late failure at 603.5 s
        // is in the 10 s windows closing at 604 s … 613 s.
        let late = streaming::msmt(603_500, 3, 50.0, true);
        let mut all = early.clone();
        all.extend(on_time.iter().cloned());
        all.push(late.clone());
        let reference = streaming::deployment(all);
        reference.register_starql(&text).unwrap();

        for workers in [None, Some(2)] {
            let p = streaming::deployment(early.clone());
            match workers {
                Some(w) => p.register_starql_distributed(&text, w).unwrap(),
                None => p.register_starql(&text).unwrap(),
            };
            for ts in (607_000..=612_000).step_by(1_000) {
                let batch: Vec<_> = on_time
                    .iter()
                    .filter(|r| r[0].as_i64() == Some(ts))
                    .cloned()
                    .collect();
                p.append_stream("S_Msmt", batch).unwrap();
            }
            p.append_stream("S_Msmt", vec![late.clone()]).unwrap();
            for merged in [false, true] {
                if merged {
                    assert!(
                        p.merge_now().unwrap() > 0,
                        "the overlay folds into the base"
                    );
                }
                for instant in [608_000, 612_000, 613_000] {
                    // Bindings come back in backend order: compare sets.
                    let stream = |tick: &TickOutput| {
                        let mut triples = tick.triples.clone();
                        triples.sort();
                        (tick.window_id, tick.satisfied, triples)
                    };
                    assert_eq!(
                        stream(&p.tick_all(instant).unwrap()[0].1),
                        stream(&reference.tick_all(instant).unwrap()[0].1),
                        "{workers:?} workers, merged {merged}, tick {instant}"
                    );
                }
            }
        }
        let fired = &reference.tick_all(612_000).unwrap()[0].1;
        assert!(
            fired.triples.iter().any(|t| t.subject == sensor(3)),
            "the late failure raises an alarm: {fired:?}"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(proptest_cases(16)))]

        /// Random sequences: the compiled join evaluator equals the
        /// reference enumerator on every formula and binding.
        #[test]
        fn generated_sequences_match_the_reference(specs in sequence_spec()) {
            assert_plans_match_reference(&specs);
        }

        /// Random window rows, restricted and late variants, both policies:
        /// the memo equals the memo-free construction.
        #[test]
        fn generated_rows_memoize_like_build_stdseq(
            rows in proptest::collection::vec(
                (0i64..6, 0i64..SENSORS, 0u8..6, 0u8..10),
                0..40,
            ),
            keep in 0i64..SENSORS,
        ) {
            let onto = ontology();
            let memo = StateMemo::new();
            let config = state_config("S_Msmt", &mapping(), &onto, true);
            let rows: Vec<Vec<Value>> = rows
                .into_iter()
                .map(|(t, s, v, f)| row(600_000 + t * 1_000, s, v, f == 0))
                .collect();
            let restricted: Vec<Vec<Value>> =
                rows.iter().filter(|r| r[1] != Value::Int(keep)).cloned().collect();
            let first_half: Vec<Vec<Value>> = rows[..rows.len() / 2].to_vec();
            for policy in [IcPolicy::DropViolating, IcPolicy::Strict] {
                for variant in [&first_half, &rows, &restricted, &rows] {
                    let memoized = canon(memo.sequence(
                        "S_Msmt", config, variant, &schema(), &mapping(), &onto, policy, true,
                    ));
                    prop_assert_eq!(memoized, reference_sequence(variant, &onto, policy));
                }
            }
        }
    }
}
