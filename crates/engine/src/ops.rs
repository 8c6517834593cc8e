//! Physical operator execution on one node's data.
//!
//! Every operator is a pure function from its inputs to an output
//! [`Batch`]: in-stage intermediates are flat row batches, and only base
//! tables, store segments and the coordinator's gathers deal in [`Row`]s
//! (see [`crate::batch`]). Executors poll an interrupt flag at row-batch
//! boundaries so an injected node failure aborts the operator mid-flight —
//! partial work is discarded exactly as when a real process dies.

use std::cmp::Ordering;

use crate::batch::{Batch, Input, IntMap};
use crate::plan::{Agg, AggFunc, OpKind};
use crate::table::Catalog;
use ftpde_store::value::{Row, Value};

/// Execution failure: the node was killed while running the operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interrupted;

/// How many rows are processed between interrupt checks.
const BATCH: usize = 256;

/// End of a hash-join chain.
const NO_ROW: u32 = u32::MAX;

/// Per-node execution context.
pub struct ExecCtx<'a> {
    /// The sharded database.
    pub catalog: &'a Catalog,
    /// This worker's node index.
    pub node: usize,
    /// Returns `true` when the node has been killed.
    pub interrupted: &'a dyn Fn() -> bool,
}

impl ExecCtx<'_> {
    #[allow(clippy::manual_is_multiple_of)] // usize::is_multiple_of needs Rust 1.87; MSRV is 1.82
    fn check(&self, processed: usize) -> Result<(), Interrupted> {
        if processed % BATCH == 0 && (self.interrupted)() {
            Err(Interrupted)
        } else {
            Ok(())
        }
    }
}

/// Executes one operator on one node. `inputs` are the operator's inputs
/// in plan order (empty for scans).
pub fn execute(
    kind: &OpKind,
    inputs: &[Input<'_>],
    ctx: &ExecCtx<'_>,
) -> Result<Batch, Interrupted> {
    match kind {
        OpKind::Scan { table, filter, project } => {
            let rows = Input::Rows(ctx.catalog.table(table).partition(ctx.node));
            let width = project.as_ref().map_or(rows.width(), Vec::len);
            // Only an unfiltered scan knows its output size up front.
            let mut out =
                Batch::with_capacity(width, if filter.is_some() { 0 } else { rows.len() });
            for (i, r) in rows.rows().enumerate() {
                ctx.check(i)?;
                if filter.as_ref().is_some_and(|f| !f.eval_bool(r)) {
                    continue;
                }
                match project {
                    Some(cols) => out.push_iter(cols.iter().map(|&c| r[c])),
                    None => out.push(r),
                }
            }
            Ok(out)
        }
        OpKind::Filter { predicate } => {
            let mut out = Batch::new(inputs[0].width());
            for (i, r) in inputs[0].rows().enumerate() {
                ctx.check(i)?;
                if predicate.eval_bool(r) {
                    out.push(r);
                }
            }
            Ok(out)
        }
        OpKind::Project { exprs } => {
            let mut out = Batch::with_capacity(exprs.len(), inputs[0].len());
            for (i, r) in inputs[0].rows().enumerate() {
                ctx.check(i)?;
                out.push_iter(exprs.iter().map(|e| e.eval(r)));
            }
            Ok(out)
        }
        OpKind::HashJoin { build_key, probe_key, residual } => {
            let (build, probe) = (inputs[0], inputs[1]);
            let n = build.len();
            assert!(n < NO_ROW as usize, "build side exceeds the chain index range");
            // Chains over build-row indices: `head[key]` is the first
            // build row with that key and `next[i]` the one after row i.
            // Inserting back to front makes every chain run in build
            // insertion order, the order matches are emitted in.
            let mut head: IntMap<i64, u32> = IntMap::default();
            head.reserve(n);
            let mut next = vec![NO_ROW; n];
            for (done, i) in (0..n).rev().enumerate() {
                ctx.check(done)?;
                if let Some(after) = head.insert(build.row(i)[*build_key].as_int(), i as u32) {
                    next[i] = after;
                }
            }
            let mut out = Batch::new(build.width() + probe.width());
            for (i, p) in probe.rows().enumerate() {
                ctx.check(i)?;
                let mut b = head.get(&p[*probe_key].as_int()).copied().unwrap_or(NO_ROW);
                while b != NO_ROW {
                    out.push_concat_if(build.row(b as usize), p, |joined| {
                        residual.as_ref().is_none_or(|f| f.eval_bool(joined))
                    });
                    b = next[b as usize];
                }
            }
            Ok(out)
        }
        OpKind::HashAgg { group_cols, aggs } => aggregate(inputs[0].rows(), group_cols, aggs, ctx),
        OpKind::TopK { sort_col, ascending, k } => {
            ctx.check(0)?; // single interruption point: selection is one burst
            let rows: Vec<&[Value]> = inputs[0].rows().collect();
            let mut out = Batch::with_capacity(inputs[0].width(), (*k).min(rows.len()));
            for r in select_top_k(&rows, *sort_col, *ascending, *k) {
                out.push(r);
            }
            Ok(out)
        }
    }
}

/// The total, deterministic top-k order: primary key is the sort column,
/// ties are broken by comparing the full row — so merging per-node
/// partials reproduces the single-node result exactly.
fn top_k_cmp(a: &[Value], b: &[Value], sort_col: usize, ascending: bool) -> Ordering {
    let primary = a[sort_col].total_cmp(&b[sort_col]);
    let primary = if ascending { primary } else { primary.reverse() };
    primary.then_with(|| {
        a.iter().zip(b).map(|(x, y)| x.total_cmp(y)).find(|o| !o.is_eq()).unwrap_or(Ordering::Equal)
    })
}

/// The first `k` of `rows` under [`top_k_cmp`], in order. Rows that
/// compare equal keep their input order (the row's position is the last
/// tie-breaker), so the result is exactly a stable sort's prefix — but
/// only the `k` survivors of a linear-time selection are sorted.
fn select_top_k<'r>(
    rows: &[&'r [Value]],
    sort_col: usize,
    ascending: bool,
    k: usize,
) -> Vec<&'r [Value]> {
    let cmp = |&a: &usize, &b: &usize| {
        top_k_cmp(rows[a], rows[b], sort_col, ascending).then_with(|| a.cmp(&b))
    };
    if k == 0 {
        return Vec::new();
    }
    let mut order: Vec<usize> = (0..rows.len()).collect();
    if k < order.len() {
        order.select_nth_unstable_by(k - 1, cmp);
        order.truncate(k);
    }
    order.sort_unstable_by(cmp);
    order.into_iter().map(|i| rows[i]).collect()
}

/// Merges per-node top-k partials into the global top-k: selects over the
/// borrowed partials (in node order) and copies only the `k` survivors.
pub fn merge_top_k(partials: &[Vec<Row>], sort_col: usize, ascending: bool, k: usize) -> Vec<Row> {
    let rows: Vec<&[Value]> = partials.iter().flatten().map(|r| &**r).collect();
    select_top_k(&rows, sort_col, ascending, k).into_iter().map(Row::from).collect()
}

/// Hash aggregation with deterministic (group-key-sorted) output order.
/// Each group's accumulators live in one flat vector; the key is built in
/// a reused buffer, so only a new group allocates.
fn aggregate<'r>(
    rows: impl Iterator<Item = &'r [Value]>,
    group_cols: &[usize],
    aggs: &[Agg],
    ctx: &ExecCtx<'_>,
) -> Result<Batch, Interrupted> {
    let n_aggs = aggs.len();
    let mut groups: IntMap<Vec<i64>, usize> = IntMap::default();
    let mut accs: Vec<Value> = Vec::new();
    let mut key: Vec<i64> = Vec::with_capacity(group_cols.len());
    for (i, r) in rows.enumerate() {
        ctx.check(i)?;
        key.clear();
        key.extend(group_cols.iter().map(|&c| r[c].as_int()));
        let g = match groups.get(&key[..]) {
            Some(&g) => g,
            None => {
                let g = groups.len();
                groups.insert(key.clone(), g);
                accs.extend(aggs.iter().map(init_acc));
                g
            }
        };
        for (acc, agg) in accs[g * n_aggs..(g + 1) * n_aggs].iter_mut().zip(aggs) {
            update_acc(acc, agg, r);
        }
    }
    // Empty input with no groups: global aggregates still yield one row.
    if groups.is_empty() && group_cols.is_empty() {
        groups.insert(Vec::new(), 0);
        accs.extend(aggs.iter().map(init_acc));
    }
    let mut keyed: Vec<(Vec<i64>, usize)> = groups.into_iter().collect();
    keyed.sort_unstable_by(|a, b| a.0.cmp(&b.0)); // keys are distinct
    let mut out = Batch::with_capacity(group_cols.len() + n_aggs, keyed.len());
    for (key, g) in keyed {
        out.push_iter(
            key.into_iter()
                .map(Value::Int)
                .chain(accs[g * n_aggs..(g + 1) * n_aggs].iter().copied()),
        );
    }
    Ok(out)
}

fn init_acc(agg: &Agg) -> Value {
    match agg.func {
        AggFunc::Sum | AggFunc::Count => Value::Int(0),
        AggFunc::Min => Value::Int(i64::MAX),
        AggFunc::Max => Value::Int(i64::MIN),
    }
}

fn update_acc(acc: &mut Value, agg: &Agg, row: &[Value]) {
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

/// Merges per-node partial aggregation outputs into the global result:
/// re-aggregates the borrowed partial rows (in node order) on the same
/// group columns with each aggregate's merge function applied to its
/// accumulator column.
pub fn merge_partials(
    partials: &[Vec<Row>],
    group_cols: &[usize],
    aggs: &[Agg],
    ctx: &ExecCtx<'_>,
) -> Result<Vec<Row>, Interrupted> {
    use crate::expr::Expr;
    let merge_group: Vec<usize> = (0..group_cols.len()).collect();
    let merge_aggs: Vec<Agg> = aggs
        .iter()
        .enumerate()
        .map(|(i, a)| Agg { func: a.func.merge_func(), expr: Expr::col(group_cols.len() + i) })
        .collect();
    let rows = partials.iter().flatten().map(|r| &**r);
    Ok(aggregate(rows, &merge_group, &merge_aggs, ctx)?.into_rows())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::table::PartitionedTable;
    use ftpde_store::value::int_row;

    fn ctx(catalog: &Catalog) -> ExecCtx<'_> {
        ExecCtx { catalog, node: 0, interrupted: &|| false }
    }

    fn empty_catalog() -> Catalog {
        Catalog::new()
    }

    #[test]
    fn scan_filters_and_projects() {
        let mut c = Catalog::new();
        c.register(PartitionedTable::replicated(
            "t",
            (0..10).map(|k| int_row(&[k, k * 2])).collect(),
            1,
        ));
        let kind = OpKind::Scan {
            table: "t".into(),
            filter: Some(Expr::col(0).ge(Expr::lit(7))),
            project: Some(vec![1]),
        };
        let out = execute(&kind, &[], &ctx(&c)).unwrap().into_rows();
        assert_eq!(out, vec![int_row(&[14]), int_row(&[16]), int_row(&[18])]);
    }

    #[test]
    fn filter_and_project() {
        let c = empty_catalog();
        let input: Vec<Row> = (0..6).map(|k| int_row(&[k])).collect();
        let f = OpKind::Filter { predicate: Expr::col(0).gt(Expr::lit(3)) };
        let out = execute(&f, &[Input::Rows(&input)], &ctx(&c)).unwrap();
        assert_eq!(out.len(), 2);
        let p = OpKind::Project { exprs: vec![Expr::col(0).mul(Expr::lit(10))] };
        let out = execute(&p, &[Input::Batch(&out)], &ctx(&c)).unwrap().into_rows();
        assert_eq!(out, vec![int_row(&[40]), int_row(&[50])]);
    }

    #[test]
    fn hash_join_concatenates_and_matches() {
        let c = empty_catalog();
        let build: Vec<Row> = vec![int_row(&[1, 100]), int_row(&[2, 200])];
        let probe: Vec<Row> = vec![int_row(&[10, 1]), int_row(&[20, 2]), int_row(&[30, 3])];
        let j = OpKind::HashJoin { build_key: 0, probe_key: 1, residual: None };
        let mut out =
            execute(&j, &[Input::Rows(&build), Input::Rows(&probe)], &ctx(&c)).unwrap().into_rows();
        out.sort_by_key(|r| r[0].as_int());
        assert_eq!(out, vec![int_row(&[1, 100, 10, 1]), int_row(&[2, 200, 20, 2])]);
    }

    #[test]
    fn hash_join_residual_filters_combined_row() {
        let c = empty_catalog();
        let build: Vec<Row> = vec![int_row(&[1, 100])];
        let probe: Vec<Row> = vec![int_row(&[50, 1]), int_row(&[150, 1])];
        // combined row: [b0, b1, p0, p1]; keep p0 > b1.
        let j = OpKind::HashJoin {
            build_key: 0,
            probe_key: 1,
            residual: Some(Expr::col(2).gt(Expr::col(1))),
        };
        let out = execute(&j, &[Input::Rows(&build), Input::Rows(&probe)], &ctx(&c)).unwrap();
        assert_eq!(out.into_rows(), vec![int_row(&[1, 100, 150, 1])]);
    }

    #[test]
    fn duplicate_build_keys_produce_all_matches() {
        let c = empty_catalog();
        let build: Vec<Row> = vec![int_row(&[1, 7]), int_row(&[1, 8])];
        let probe: Vec<Row> = vec![int_row(&[1])];
        let j = OpKind::HashJoin { build_key: 0, probe_key: 0, residual: None };
        let out = execute(&j, &[Input::Rows(&build), Input::Rows(&probe)], &ctx(&c)).unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn aggregation_groups_and_sorts() {
        let c = empty_catalog();
        let input: Vec<Row> =
            vec![int_row(&[2, 10]), int_row(&[1, 5]), int_row(&[2, 30]), int_row(&[1, 7])];
        let a = OpKind::HashAgg {
            group_cols: vec![0],
            aggs: vec![
                Agg { func: AggFunc::Sum, expr: Expr::col(1) },
                Agg { func: AggFunc::Count, expr: Expr::lit(1) },
                Agg { func: AggFunc::Min, expr: Expr::col(1) },
                Agg { func: AggFunc::Max, expr: Expr::col(1) },
            ],
        };
        let out = execute(&a, &[Input::Rows(&input)], &ctx(&c)).unwrap().into_rows();
        assert_eq!(out, vec![int_row(&[1, 12, 2, 5, 7]), int_row(&[2, 40, 2, 10, 30])]);
    }

    #[test]
    fn global_aggregate_on_empty_input_yields_one_row() {
        let c = empty_catalog();
        let input: Vec<Row> = Vec::new();
        let a = OpKind::HashAgg {
            group_cols: vec![],
            aggs: vec![Agg { func: AggFunc::Count, expr: Expr::lit(1) }],
        };
        let out = execute(&a, &[Input::Rows(&input)], &ctx(&c)).unwrap().into_rows();
        assert_eq!(out, vec![int_row(&[0])]);
    }

    #[test]
    fn merge_partials_reaggregates() {
        let c = empty_catalog();
        let cx = ctx(&c);
        let group_cols = vec![0];
        let aggs = vec![
            Agg { func: AggFunc::Sum, expr: Expr::col(1) },
            Agg { func: AggFunc::Count, expr: Expr::lit(1) },
            Agg { func: AggFunc::Min, expr: Expr::col(1) },
        ];
        // Partials from two nodes: [group, sum, count, min].
        let node0 = vec![int_row(&[1, 10, 2, 3])];
        let node1 = vec![int_row(&[1, 20, 3, 1]), int_row(&[2, 5, 1, 5])];
        let merged = merge_partials(&[node0, node1], &group_cols, &aggs, &cx).unwrap();
        assert_eq!(merged, vec![int_row(&[1, 30, 5, 1]), int_row(&[2, 5, 1, 5])]);
    }

    /// Runs `kind` under an interrupt flag that first reads `true` on
    /// its `fire_on`-th poll. Returns the outcome and how many times the
    /// kernel polled.
    fn run_killed(
        kind: &OpKind,
        inputs: &[Input<'_>],
        catalog: &Catalog,
        fire_on: usize,
    ) -> (Result<Batch, Interrupted>, usize) {
        let polls = std::cell::Cell::new(0);
        let interrupted = || {
            polls.set(polls.get() + 1);
            polls.get() >= fire_on
        };
        let out = execute(kind, inputs, &ExecCtx { catalog, node: 0, interrupted: &interrupted });
        (out, polls.get())
    }

    fn keys(n: i64) -> Vec<Row> {
        (0..n).map(|k| int_row(&[k % 7, k])).collect()
    }

    #[test]
    fn every_kernel_stops_at_the_batch_boundary_where_the_kill_lands() {
        let mut c = Catalog::new();
        c.register(PartitionedTable::replicated("t", keys(1000), 1));
        let rows = keys(1000);
        let few = keys(10);
        let scan = OpKind::Scan { table: "t".into(), filter: None, project: None };
        let filter = OpKind::Filter { predicate: Expr::col(1).ge(Expr::lit(0)) };
        let project = OpKind::Project { exprs: vec![Expr::col(1)] };
        let join = OpKind::HashJoin { build_key: 0, probe_key: 0, residual: None };
        let agg = OpKind::HashAgg {
            group_cols: vec![0],
            aggs: vec![Agg { func: AggFunc::Count, expr: Expr::lit(1) }],
        };
        let top = OpKind::TopK { sort_col: 1, ascending: false, k: 3 };
        let all = [Input::Rows(&rows)];
        // (kernel, inputs, poll the kill lands on, polls of a whole run).
        // Kernels poll once per started batch of 256 rows: the second poll
        // is row 256. A join over a 10-row build side polls once while
        // building, so its third poll is the probe's row 256. Top-k
        // selects in one burst after a single poll.
        let cases: [(&str, &OpKind, &[Input<'_>], usize, usize); 7] = [
            ("scan", &scan, &[], 2, 4),
            ("filter", &filter, &all, 2, 4),
            ("project", &project, &all, 2, 4),
            ("join build", &join, &[Input::Rows(&rows), Input::Rows(&few)], 2, 5),
            ("join probe", &join, &[Input::Rows(&few), Input::Rows(&rows)], 3, 5),
            ("aggregate", &agg, &all, 2, 4),
            ("top-k", &top, &all, 1, 1),
        ];
        for (name, kind, inputs, fire_on, whole_run) in cases {
            let (out, polls) = run_killed(kind, inputs, &c, fire_on);
            assert_eq!(out, Err(Interrupted), "{name} ran past the kill");
            assert_eq!(polls, fire_on, "{name} polled after the kill");
            let (out, polls) = run_killed(kind, inputs, &c, usize::MAX);
            assert!(out.is_ok(), "{name} failed without a kill");
            assert_eq!(polls, whole_run, "{name} polled between batch boundaries");
        }
    }
}
