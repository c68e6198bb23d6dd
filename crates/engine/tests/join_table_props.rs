//! Property tests for the flat hash-join state and the evaluation entry
//! points built on it.
//!
//! `JoinTable` is checked against a nested-loop join, compared as
//! multisets, over duplicate and NULL keys, over distinct keys forced
//! onto the same stored hash (so only the `sql_eq` guard separates
//! them), and across a state extraction replayed into a second table.
//! Every evaluator kind must give the same answer through `process` and
//! `process_into`.

use std::sync::Arc;

use gridq_common::check::{Check, Gen};
use gridq_common::{DataType, DetRng, Field, Schema, Tuple, Value};
use gridq_engine::evaluator::{
    EvaluatorFactory, FilterMapFactory, HashJoinFactory, ServiceCallFactory, StreamTag,
};
use gridq_engine::expr::BinOp;
use gridq_engine::{Expr, FnService, JoinTable, ServiceRegistry};

/// NULL, a few integers and a few strings: duplicates are frequent and
/// no two distinct keys are `sql_eq`.
fn key(rng: &mut DetRng) -> Value {
    match rng.usize_in(0, 10) {
        0 => Value::Null,
        1..=5 => Value::Int(rng.i64_in(0, 4)),
        _ => Value::str(*rng.pick(&["a", "b", "c"])),
    }
}

/// A join case: build keys, probe keys, the mask applied to every stored
/// hash (all ones: the real hash; 0 or 1: forced collisions), and a
/// bucket extraction.
#[derive(Debug, Clone)]
struct Case {
    build: Vec<Value>,
    probe: Vec<Value>,
    mask: u64,
    bucket_count: u32,
    buckets: Vec<u32>,
}

fn case(rng: &mut DetRng) -> Case {
    let bucket_count = rng.u32_in(1, 9);
    Case {
        build: rng.vec_of(0, 40, key),
        probe: rng.vec_of(0, 40, key),
        mask: *rng.pick(&[u64::MAX, u64::MAX, 0, 1]),
        bucket_count,
        buckets: rng.vec_of(0, 5, |r| r.u32_in(0, bucket_count)),
    }
}

fn hash(c: &Case, k: &Value) -> u64 {
    k.stable_hash() & c.mask
}

fn build_row(i: usize, k: &Value) -> Tuple {
    Tuple::with_seq(vec![k.clone(), Value::Int(i as i64)], i as u64)
}

fn build_index(t: &Tuple) -> usize {
    t.value(1).as_int().expect("build rows carry their index") as usize
}

/// The `(build index, probe index)` pairs of a nested-loop equi-join.
fn reference(c: &Case) -> Vec<(usize, usize)> {
    let mut pairs = Vec::new();
    for (b, bk) in c.build.iter().enumerate() {
        for (p, pk) in c.probe.iter().enumerate() {
            if bk.sql_eq(pk) {
                pairs.push((b, p));
            }
        }
    }
    pairs.sort_unstable();
    pairs
}

fn filled(c: &Case) -> JoinTable {
    let mut t = JoinTable::new(0);
    for (i, k) in c.build.iter().enumerate() {
        t.insert(hash(c, k), build_row(i, k));
    }
    t
}

/// The pairs the tables produce for every probe key, as a multiset.
fn joined(c: &Case, tables: &[&JoinTable]) -> Vec<(usize, usize)> {
    let mut pairs = Vec::new();
    for (p, pk) in c.probe.iter().enumerate() {
        for t in tables {
            pairs.extend(t.probe(hash(c, pk), pk).map(|b| (build_index(b), p)));
        }
    }
    pairs.sort_unstable();
    pairs
}

#[test]
fn join_table_matches_nested_loop_join() {
    Check::new("JoinTable join equals the nested-loop join").run(case, |c| {
        let t = filled(c);
        let stored = c.build.iter().filter(|k| !k.is_null()).count();
        if t.len() != stored {
            return Err(format!("stored {} of {stored} non-NULL rows", t.len()));
        }
        let (got, want) = (joined(c, &[&t]), reference(c));
        if got != want {
            return Err(format!("join {got:?} != reference {want:?}"));
        }
        Ok(())
    });
}

#[test]
fn extracted_state_replays_elsewhere_without_loss() {
    Check::new("JoinTable extract + replay conserves the join").run(case, |c| {
        let mut a = filled(c);
        let before = a.len();
        let moved = a.extract(c.bucket_count, &c.buckets);
        let in_buckets = |k: &Value| {
            c.buckets
                .contains(&((hash(c, k) % u64::from(c.bucket_count)) as u32))
        };
        if let Some(t) = moved.iter().find(|t| !in_buckets(t.value(0))) {
            return Err(format!("extracted {t} from a bucket not asked for"));
        }
        let mut b = JoinTable::new(0);
        for t in moved {
            b.insert(hash(c, t.value(0)), t);
        }
        if a.len() + b.len() != before {
            return Err(format!(
                "{} + {} rows after, {before} before",
                a.len(),
                b.len()
            ));
        }
        for k in &c.build {
            let (left, right) = (
                a.probe(hash(c, k), k).count(),
                b.probe(hash(c, k), k).count(),
            );
            if (in_buckets(k) && left > 0) || (!in_buckets(k) && right > 0) {
                return Err(format!("key {k} split: {left} stayed, {right} moved"));
            }
        }
        let (got, want) = (joined(c, &[&a, &b]), reference(c));
        if got != want {
            return Err(format!("join after replay {got:?} != reference {want:?}"));
        }
        Ok(())
    });
}

fn int_schema(name: &str) -> Schema {
    Schema::new(vec![Field::new(name, DataType::Int)])
}

/// One factory per evaluator kind.
fn factories() -> Vec<Box<dyn EvaluatorFactory>> {
    let square = Arc::new(FnService::new(
        "Square",
        vec![DataType::Int],
        DataType::Int,
        3.0,
        |args| Ok(Value::Int(args[0].as_int().unwrap_or(0).pow(2))),
    ));
    let above_two = Expr::Binary {
        op: BinOp::Gt,
        left: Box::new(Expr::col(0)),
        right: Box::new(Expr::lit(2i64)),
    };
    vec![
        Box::new(ServiceCallFactory::new(
            &int_schema("x"),
            square,
            vec![Expr::col(0)],
            "sq",
            true,
            ServiceRegistry::new(),
        )),
        Box::new(HashJoinFactory::new(
            &int_schema("k"),
            &int_schema("k2"),
            0,
            0,
            0.1,
            2.0,
        )),
        Box::new(FilterMapFactory::new(
            &int_schema("x"),
            Some(above_two),
            None,
            0.5,
            ServiceRegistry::new(),
        )),
    ]
}

fn stream(rng: &mut DetRng) -> (StreamTag, i64) {
    let tag = *rng.pick(&[
        StreamTag::Build,
        StreamTag::Build,
        StreamTag::Probe,
        StreamTag::Probe,
        StreamTag::Single,
    ]);
    (tag, rng.i64_in(0, 6))
}

#[test]
fn process_and_process_into_agree_for_every_evaluator() {
    Check::new("process and process_into agree").run(
        |rng| rng.vec_of(0, 60, stream),
        |inputs| {
            for factory in factories() {
                let (mut whole, mut into) = (factory.create(0), factory.create(0));
                let sentinel = Tuple::with_seq(vec![Value::str("sentinel")], 7);
                let mut out = vec![sentinel.clone()];
                for (seq, &(tag, v)) in inputs.iter().enumerate() {
                    let t = Tuple::with_seq(vec![Value::Int(v)], seq as u64);
                    let name = factory.name();
                    match (whole.process(tag, &t), into.process_into(tag, &t, &mut out)) {
                        (Ok(o), Ok(cost)) => {
                            if o.base_cost_ms.to_bits() != cost.to_bits() {
                                return Err(format!("{name}: cost {} vs {cost}", o.base_cost_ms));
                            }
                            if out[1..] != o.outputs[..] {
                                return Err(format!("{name}: {:?} vs {:?}", &out[1..], o.outputs));
                            }
                        }
                        (Err(_), Err(_)) if out.len() == 1 => {}
                        (a, b) => {
                            return Err(format!("{name} on {tag:?}: {a:?} vs {b:?}, out {out:?}"))
                        }
                    }
                    if out[0] != sentinel {
                        return Err(format!("{name}: process_into overwrote the buffer"));
                    }
                    out.truncate(1);
                }
                if whole.state_size() != into.state_size() {
                    return Err(format!("{}: state sizes differ", factory.name()));
                }
            }
            Ok(())
        },
    );
}
