//! The batch kernels of `ops::execute` against the row-at-a-time kernels
//! they replaced, kept here as the reference: over random inputs both
//! must return the same rows in the same order — join output in probe
//! order then build insertion order, aggregates sorted by key with float
//! sums accumulated in row order, top-k ties kept in input order. Inputs
//! come both as boundary rows and as in-stage batches.

use std::collections::HashMap;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ftpde_engine::batch::{Batch, Input};
use ftpde_engine::expr::Expr;
use ftpde_engine::ops::{execute, merge_partials, merge_top_k, ExecCtx};
use ftpde_engine::plan::{Agg, AggFunc, OpKind};
use ftpde_engine::table::{Catalog, PartitionedTable};
use ftpde_store::value::{Row, Value};

/// The row-at-a-time reference: one `Row` allocation per output tuple,
/// `Vec<&Row>` join buckets, SipHash tables, and a full copy-and-sort for
/// top-k.
mod reference {
    use super::*;

    pub fn scan(rows: &[Row], filter: Option<&Expr>, project: Option<&[usize]>) -> Vec<Row> {
        let mut out = Vec::new();
        for r in rows {
            if filter.is_some_and(|f| !f.eval_bool(r)) {
                continue;
            }
            out.push(match project {
                Some(cols) => cols.iter().map(|&c| r[c]).collect(),
                None => r.clone(),
            });
        }
        out
    }

    pub fn project(rows: &[Row], exprs: &[Expr]) -> Vec<Row> {
        rows.iter().map(|r| exprs.iter().map(|e| e.eval(r)).collect()).collect()
    }

    pub fn hash_join(
        build: &[Row],
        probe: &[Row],
        build_key: usize,
        probe_key: usize,
        residual: Option<&Expr>,
    ) -> Vec<Row> {
        let mut table: HashMap<i64, Vec<&Row>> = HashMap::new();
        for r in build {
            table.entry(r[build_key].as_int()).or_default().push(r);
        }
        let mut out = Vec::new();
        for p in probe {
            if let Some(matches) = table.get(&p[probe_key].as_int()) {
                for b in matches {
                    let joined: Row = b.iter().chain(p.iter()).copied().collect();
                    if residual.is_none_or(|f| f.eval_bool(&joined)) {
                        out.push(joined);
                    }
                }
            }
        }
        out
    }

    pub fn top_k(rows: &[Row], sort_col: usize, ascending: bool, k: usize) -> Vec<Row> {
        let mut out: Vec<Row> = rows.to_vec();
        out.sort_by(|a, b| {
            let primary = a[sort_col].total_cmp(&b[sort_col]);
            let primary = if ascending { primary } else { primary.reverse() };
            primary.then_with(|| {
                a.iter()
                    .zip(b.iter())
                    .map(|(x, y)| x.total_cmp(y))
                    .find(|o| !o.is_eq())
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
        });
        out.truncate(k);
        out
    }

    pub fn aggregate(rows: &[Row], group_cols: &[usize], aggs: &[Agg]) -> Vec<Row> {
        let mut groups: HashMap<Vec<i64>, Vec<Value>> = HashMap::new();
        for r in rows {
            let key: Vec<i64> = group_cols.iter().map(|&c| r[c].as_int()).collect();
            let accs = groups.entry(key).or_insert_with(|| init_accs(aggs));
            for (acc, agg) in accs.iter_mut().zip(aggs) {
                update_acc(acc, agg, r);
            }
        }
        if groups.is_empty() && group_cols.is_empty() {
            groups.insert(Vec::new(), init_accs(aggs));
        }
        let mut keyed: Vec<(Vec<i64>, Vec<Value>)> = groups.into_iter().collect();
        keyed.sort_by(|a, b| a.0.cmp(&b.0));
        keyed
            .into_iter()
            .map(|(key, accs)| key.into_iter().map(Value::Int).chain(accs).collect::<Row>())
            .collect()
    }

    fn init_accs(aggs: &[Agg]) -> Vec<Value> {
        aggs.iter()
            .map(|a| match a.func {
                AggFunc::Sum | AggFunc::Count => Value::Int(0),
                AggFunc::Min => Value::Int(i64::MAX),
                AggFunc::Max => Value::Int(i64::MIN),
            })
            .collect()
    }

    fn update_acc(acc: &mut Value, agg: &Agg, row: &Row) {
        match agg.func {
            AggFunc::Count => *acc = Value::Int(acc.as_int() + 1),
            AggFunc::Sum => {
                let v = agg.expr.eval(row);
                *acc = match (*acc, v) {
                    (Value::Int(a), Value::Int(b)) => Value::Int(a + b),
                    (a, b) => Value::Float(a.as_float() + b.as_float()),
                };
            }
            AggFunc::Min => {
                let v = agg.expr.eval(row);
                if v.total_cmp(acc).is_lt() {
                    *acc = v;
                }
            }
            AggFunc::Max => {
                let v = agg.expr.eval(row);
                if v.total_cmp(acc).is_gt() {
                    *acc = v;
                }
            }
        }
    }

    pub fn merge_partials(partials: &[Vec<Row>], group_cols: &[usize], aggs: &[Agg]) -> Vec<Row> {
        let all: Vec<Row> = partials.iter().flatten().cloned().collect();
        let merge_group: Vec<usize> = (0..group_cols.len()).collect();
        let merge_aggs: Vec<Agg> = aggs
            .iter()
            .enumerate()
            .map(|(i, a)| Agg { func: a.func.merge_func(), expr: Expr::col(group_cols.len() + i) })
            .collect();
        aggregate(&all, &merge_group, &merge_aggs)
    }
}

/// Random rows: column 0 is an integer key in `0..keys` (small ranges give
/// duplicate keys), the other `width - 1` columns alternate between
/// integers and floats (so sums, minima and maxima see both types).
fn random_rows(rng: &mut StdRng, n: usize, width: usize, keys: i64) -> Vec<Row> {
    (0..n)
        .map(|_| {
            (0..width)
                .map(|c| match c {
                    0 => Value::Int(rng.gen_range(0..keys)),
                    c if c % 2 == 1 => Value::Int(rng.gen_range(-50i64..50)),
                    _ => Value::Float(rng.gen::<f64>() * 100.0 - 50.0),
                })
                .collect()
        })
        .collect()
}

fn no_kill() -> bool {
    false
}

/// Runs `kind` through the batch kernels twice — inputs as boundary rows
/// and as batches — asserts both agree, and returns the rows.
fn run(kind: &OpKind, inputs: &[&[Row]], catalog: &Catalog) -> Vec<Row> {
    let ctx = ExecCtx { catalog, node: 0, interrupted: &no_kill };
    let as_rows: Vec<Input<'_>> = inputs.iter().map(|r| Input::Rows(r)).collect();
    let out = execute(kind, &as_rows, &ctx).expect("never interrupted").into_rows();
    let batches: Vec<Batch> = inputs.iter().map(|r| Batch::from_rows(r)).collect();
    let as_batches: Vec<Input<'_>> = batches.iter().map(Input::Batch).collect();
    let out_b = execute(kind, &as_batches, &ctx).expect("never interrupted").into_rows();
    assert_eq!(out, out_b, "row and batch inputs disagree");
    out
}

fn catalog_of(rows: &[Row]) -> Catalog {
    let mut c = Catalog::new();
    c.register(PartitionedTable::replicated("t", rows.to_vec(), 1));
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Scan (with and without filter/projection), filter and project,
    /// including zero-width rows in and out.
    #[test]
    fn scan_filter_project_match_the_reference(
        n in 0usize..600,
        width in 0usize..5,
        cut in -50i64..50,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows = random_rows(&mut rng, n, width, 10);
        let catalog = catalog_of(&rows);
        // Predicates that type-check on any width (zero-width rows only
        // see literals).
        let pred = if width >= 2 { Expr::col(1).lt(Expr::lit(cut)) } else { Expr::lit(cut % 2) };
        let cols: Vec<usize> = (0..width).rev().collect();
        for (filter, project) in [
            (None, None),
            (Some(pred.clone()), None),
            (None, Some(cols.clone())),
            (Some(pred.clone()), Some(cols.clone())),
            (Some(pred.clone()), Some(Vec::new())),
        ] {
            let kind = OpKind::Scan { table: "t".into(), filter: filter.clone(), project: project.clone() };
            let expected = reference::scan(&rows, filter.as_ref(), project.as_deref());
            prop_assert_eq!(run(&kind, &[], &catalog), expected);
        }
        let filter = OpKind::Filter { predicate: pred.clone() };
        prop_assert_eq!(run(&filter, &[&rows], &catalog), reference::scan(&rows, Some(&pred), None));
        let mut exprs: Vec<Expr> = (0..width).map(Expr::col).collect();
        exprs.push(Expr::litf(0.5).mul(Expr::lit(cut)));
        for exprs in [exprs, Vec::new()] {
            let kind = OpKind::Project { exprs: exprs.clone() };
            prop_assert_eq!(run(&kind, &[&rows], &catalog), reference::project(&rows, &exprs));
        }
    }

    /// Hash join with duplicate keys on both sides, empty build or probe
    /// inputs, and a residual over the concatenated row.
    #[test]
    fn hash_join_matches_the_reference(
        build_n in 0usize..120,
        probe_n in 0usize..400,
        keys in 1i64..12,
        residual in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let build = random_rows(&mut rng, build_n, 3, keys);
        let probe = random_rows(&mut rng, probe_n, 2, keys);
        let catalog = Catalog::new();
        // Combined row: [b0, b1, b2, p0, p1]; keep p1 > b1.
        let residual = residual.then(|| Expr::col(4).gt(Expr::col(1)));
        let kind = OpKind::HashJoin { build_key: 0, probe_key: 0, residual: residual.clone() };
        let expected = reference::hash_join(&build, &probe, 0, 0, residual.as_ref());
        prop_assert_eq!(run(&kind, &[&build, &probe], &catalog), expected);
    }

    /// Hash aggregation (int and float sums, counts, minima, maxima) with
    /// zero, one or two group columns, plus the coordinator's merge of
    /// per-node partials.
    #[test]
    fn aggregation_and_merge_match_the_reference(
        n in 0usize..600,
        groups in 0usize..3,
        keys in 1i64..20,
        nodes in 1usize..4,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows = random_rows(&mut rng, n, 4, keys);
        let catalog = Catalog::new();
        let group_cols: Vec<usize> = [0, 1][..groups].to_vec();
        let aggs = vec![
            Agg { func: AggFunc::Sum, expr: Expr::col(1) },
            Agg { func: AggFunc::Sum, expr: Expr::col(2) },
            Agg { func: AggFunc::Count, expr: Expr::lit(1) },
            Agg { func: AggFunc::Min, expr: Expr::col(2) },
            Agg { func: AggFunc::Max, expr: Expr::col(3) },
        ];
        let kind = OpKind::HashAgg { group_cols: group_cols.clone(), aggs: aggs.clone() };
        prop_assert_eq!(run(&kind, &[&rows], &catalog), reference::aggregate(&rows, &group_cols, &aggs));

        let partials: Vec<Vec<Row>> = rows
            .chunks(n / nodes + 1)
            .map(|part| reference::aggregate(part, &group_cols, &aggs))
            .collect();
        let ctx = ExecCtx { catalog: &catalog, node: 0, interrupted: &no_kill };
        prop_assert_eq!(
            merge_partials(&partials, &group_cols, &aggs, &ctx).unwrap(),
            reference::merge_partials(&partials, &group_cols, &aggs)
        );
    }

    /// Top-k with ties: sort values from a small range, stored as `Int`
    /// or as the equal `Float`, so rows that compare equal still differ
    /// and only input order separates them.
    #[test]
    fn top_k_and_its_merge_match_the_reference(
        n in 0usize..300,
        k in 0usize..40,
        ascending in any::<bool>(),
        nodes in 1usize..4,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<Row> = (0..n)
            .map(|_| {
                let v = rng.gen_range(0i64..6);
                let sort = if rng.gen_bool(0.5) { Value::Int(v) } else { Value::Float(v as f64) };
                vec![Value::Int(rng.gen_range(0i64..3)), sort].into_boxed_slice()
            })
            .collect();
        let catalog = Catalog::new();
        let kind = OpKind::TopK { sort_col: 1, ascending, k };
        prop_assert_eq!(run(&kind, &[&rows], &catalog), reference::top_k(&rows, 1, ascending, k));

        let partials: Vec<Vec<Row>> = rows.chunks(n / nodes + 1).map(<[Row]>::to_vec).collect();
        let all: Vec<Row> = partials.iter().flatten().cloned().collect();
        prop_assert_eq!(
            merge_top_k(&partials, 1, ascending, k),
            reference::top_k(&all, 1, ascending, k)
        );
    }
}
