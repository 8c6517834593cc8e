//! The three workloads: their set-up, one operation (one query submitted
//! through the public engine API and checked against a reference), and
//! the shape assertions that keep each workload on the layer it is for.

use std::borrow::Cow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use ftpde_core::collapse::CollapsedPlan;
use ftpde_core::config::MatConfig;
use ftpde_core::cost::{estimate_ft_plan, CostParams};
use ftpde_core::dag::PlanDag;
use ftpde_core::operator::OpId;
use ftpde_core::prune::PruneOptions;
use ftpde_core::search::find_best_ft_plan;
use ftpde_engine::prelude::{
    load_catalog, q1_engine_plan, q3_engine_plan, q5_engine_plan, run_query_resumable,
    run_query_resumable_traced, Catalog, DiskBackend, EOpId, EnginePlan, FailureInjector,
    MemBackend, Row, RunOptions, StoreBackend,
};
use ftpde_obs::sync::clock;
use ftpde_tpch::datagen::Database;

use crate::trace::{micros, SpanRecorder, TimingStore};

/// Simulated nodes, one worker thread each. One node keeps the engine's
/// busy work on one of the 2 CPUs the benchmark is sized for, so a
/// process competing for the other CPU does not move the figures; with
/// two nodes every stage waits for whichever CPU is shared.
pub const NODES: usize = 1;
/// TPC-H scale factor (~173k rows): kernel work outweighs the fixed
/// per-query overhead at this size.
const SCALE_FACTOR: f64 = 0.02;
/// Datasets per run, each generated from its own seed derived from the
/// workload seed; operations round-robin over them. At this scale the
/// size of Q5's intermediates varies by about ±13% from one data seed to
/// the next, so a run on one dataset would measure its seed as much as
/// the program.
const DATASETS: usize = 4;
/// Operations per cycle. A run executes whole cycles, so every per-query
/// count is an average over the same operations for a given seed. A
/// cycle's p90 has 21 of its 216 samples beyond it. Each operation of a
/// cycle has its own injector seed, so the node retries per query of
/// `recover-best-mem` stay within 1.42–1.57 over workload seeds 21–28.
/// Divisible by every workload's queries × [`DATASETS`].
pub const CYCLE: usize = 216;
/// Operations of the untimed warm-up: every query on every dataset at
/// least twice.
pub const WARMUP_OPS: usize = 24;
/// Set-ups before the measured run, and again after it; `setup_s` is the
/// median of both groups, so it samples the host at both ends of the run.
const SETUP_REPEATS: usize = 8;
/// Probability of killing each (stage, node) first attempt.
const KILL_P: f64 = 0.5;
/// `recover-best-mem` MTBF as a share of the query's failure-free cost
/// (the paper's low-MTBF regime, Fig. 8a): 3.5 unit-cost seconds for Q5,
/// where `best` materializes 2 of its 12 operators.
const MTBF_SHARE: f64 = 0.5;
/// Repair time in the same unit-cost seconds.
const MTTR: f64 = 1.0;
/// The paper's default cluster MTBF, in seconds.
const HOUR: f64 = 3600.0;
/// Q5's largest intermediate, checkpointed by `resume-disk`'s set-up.
const RESUME_CHECKPOINT_OP: &str = "⋈ R,N,C,O,L";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ScanJoinMem,
    RecoverBestMem,
    ResumeDisk,
}

impl Workload {
    pub const ALL: [Workload; 3] =
        [Workload::ScanJoinMem, Workload::RecoverBestMem, Workload::ResumeDisk];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ScanJoinMem => "scan-join-mem",
            Workload::RecoverBestMem => "recover-best-mem",
            Workload::ResumeDisk => "resume-disk",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn queries(self) -> Vec<(&'static str, EnginePlan)> {
        match self {
            Workload::ScanJoinMem => {
                vec![("Q1", q1_engine_plan()), ("Q3", q3_engine_plan()), ("Q5", q5_engine_plan())]
            }
            _ => vec![("Q5", q5_engine_plan())],
        }
    }
}

/// Set-up time of one repetition, summed over its datasets, in seconds.
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupTimes {
    pub datagen_s: f64,
    pub catalog_s: f64,
    pub checkpoint_s: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.datagen_s + self.catalog_s + self.checkpoint_s
    }
}

struct Query {
    name: &'static str,
    plan: EnginePlan,
    dag: PlanDag,
    /// The fixed configuration; `recover-best-mem` searches per query
    /// and keeps the set-up search's answer here.
    config: MatConfig,
    /// Failure-free `none`/`MemBackend` result on each dataset, sinks in
    /// id order, rows sorted.
    references: Vec<Vec<(EOpId, Vec<Row>)>>,
}

/// How one operation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    Correct,
    Aborted,
    Panicked,
    WrongResult,
}

/// Per-query layer measurements of a traced operation. Times are in
/// microseconds; every field is summed by the caller and divided by the
/// number of traced queries.
#[derive(Debug, Default, Clone, Copy)]
pub struct Layers {
    pub wall_us: f64,
    pub search_us: f64,
    pub configs_explored: f64,
    pub materialized_ops: f64,
    pub open_us: f64,
    pub stage_us: f64,
    pub attempt_us: f64,
    pub coord_us: f64,
    pub node_retries: f64,
    pub stages_skipped: f64,
    pub put_us: f64,
    pub puts: f64,
    pub fsyncs: f64,
    pub get_us: f64,
    pub gets: f64,
    pub read_bytes: f64,
    pub store_calls: f64,
}

impl Layers {
    pub fn add(&mut self, o: &Layers) {
        self.wall_us += o.wall_us;
        self.search_us += o.search_us;
        self.configs_explored += o.configs_explored;
        self.materialized_ops += o.materialized_ops;
        self.open_us += o.open_us;
        self.stage_us += o.stage_us;
        self.attempt_us += o.attempt_us;
        self.coord_us += o.coord_us;
        self.node_retries += o.node_retries;
        self.stages_skipped += o.stages_skipped;
        self.put_us += o.put_us;
        self.puts += o.puts;
        self.fsyncs += o.fsyncs;
        self.get_us += o.get_us;
        self.gets += o.gets;
        self.read_bytes += o.read_bytes;
        self.store_calls += o.store_calls;
    }
}

/// One finished operation.
#[derive(Debug)]
pub struct OpResult {
    pub outcome: Outcome,
    /// Submission to result: search + store open + engine run.
    pub wall_us: f64,
    pub bytes_stored: u64,
    pub node_retries: u64,
    pub stages_skipped: u64,
    /// Present for traced operations.
    pub layers: Option<Layers>,
}

/// A set-up workload, ready to run operations.
pub struct Bench {
    workload: Workload,
    seed: u64,
    catalogs: Vec<Catalog>,
    queries: Vec<Query>,
    /// Cost parameters of the per-query search (`recover-best-mem`).
    search: Option<CostParams>,
    /// `resume-disk`'s persistent checkpoint directories, one subdirectory
    /// per dataset.
    checkpoint: PathBuf,
}

impl Bench {
    /// Sets the workload up [`SETUP_REPEATS`] times, keeping the last
    /// repetition, and checks the set-up half of the workload's shape.
    /// Returns the bench and every repetition's set-up times.
    pub fn setup(
        workload: Workload,
        seed: u64,
        work: &Path,
    ) -> Result<(Bench, Vec<SetupTimes>), String> {
        let checkpoint = work.join("checkpoint");
        let queries = workload.queries();
        let resume = match workload {
            Workload::ResumeDisk => Some(resume_config(&queries[0].1)?),
            _ => None,
        };
        let (mut catalogs, first) = setup_all(seed, &queries[0].1, resume.as_ref(), &checkpoint)?;
        let mut times = vec![first];
        while times.len() < SETUP_REPEATS {
            // Free the last catalogs before building the next ones.
            drop(catalogs);
            let (cats, t) = setup_all(seed, &queries[0].1, resume.as_ref(), &checkpoint)?;
            times.push(t);
            catalogs = cats;
        }

        let search = (workload == Workload::RecoverBestMem).then(|| {
            let dag = queries[0].1.to_plan_dag();
            let failure_free =
                estimate_ft_plan(&dag, &MatConfig::none(&dag), &hour_params()).dominant_runtime;
            CostParams::new(MTBF_SHARE * failure_free, MTTR)
        });
        let queries = queries
            .into_iter()
            .map(|(name, plan)| {
                let dag = plan.to_plan_dag();
                let config = match (&search, &resume) {
                    (Some(params), _) => best_config(&dag, params)?.0,
                    (None, Some(resume)) => resume.clone(),
                    (None, None) => MatConfig::none(&dag),
                };
                let none = MatConfig::none(&dag);
                let references = catalogs
                    .iter()
                    .map(|catalog| {
                        let report = run_query_resumable(
                            &plan,
                            &none,
                            catalog,
                            &FailureInjector::none(),
                            &RunOptions::default(),
                            &MemBackend::new(),
                        );
                        if report.aborted {
                            return Err(format!("{name}: reference run aborted"));
                        }
                        Ok(sorted(report.results))
                    })
                    .collect::<Result<_, String>>()?;
                Ok(Query { name, plan, dag, config, references })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let bench = Bench { workload, seed, catalogs, queries, search, checkpoint };
        bench.check_setup_shape()?;
        Ok((bench, times))
    }

    /// Times [`SETUP_REPEATS`] more set-ups, discarding what they build
    /// (`resume-disk` rewrites the same checkpoint).
    pub fn repeat_setup(&self) -> Result<Vec<SetupTimes>, String> {
        let resume =
            (self.workload == Workload::ResumeDisk).then(|| self.queries[0].config.clone());
        (0..SETUP_REPEATS)
            .map(|_| {
                setup_all(self.seed, &self.queries[0].plan, resume.as_ref(), &self.checkpoint)
                    .map(|(_, t)| t)
            })
            .collect()
    }

    /// The set-up half of each workload's shape.
    fn check_setup_shape(&self) -> Result<(), String> {
        for q in &self.queries {
            match self.workload {
                Workload::ScanJoinMem => {
                    let (best, _) = best_config(&q.dag, &hour_params())?;
                    if best != MatConfig::none(&q.dag) {
                        return Err(format!(
                            "{}: best at a 1 h MTBF materializes {:?}, not none",
                            q.name,
                            best.materialized_ops()
                        ));
                    }
                }
                Workload::RecoverBestMem => {
                    let n = q.config.materialized_count();
                    if n == 0 || n >= MatConfig::all(&q.dag).materialized_count() {
                        return Err(format!(
                            "{}: best materializes {n} operators, not a strict non-empty subset",
                            q.name
                        ));
                    }
                }
                Workload::ResumeDisk => {
                    let op = q.config.materialized_ops()[0].0;
                    for d in 0..DATASETS {
                        let store = open_disk(&dataset_dir(&self.checkpoint, d))?;
                        if !(0..NODES).all(|n| store.contains(op, n)) {
                            return Err(format!(
                                "{}: checkpoint of operator {op} on dataset {d} is not on every node",
                                q.name
                            ));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Runs operation `k` (its position in the cycle fixes the query, the
    /// dataset and the failure-injector seed), catching panics. Errors are
    /// shape violations or benchmark faults, which make the whole run
    /// invalid.
    pub fn run_op(&self, k: usize, traced: bool) -> Result<OpResult, String> {
        let q = &self.queries[k % self.queries.len()];
        let d = k / self.queries.len() % DATASETS;
        let result = catch_unwind(AssertUnwindSafe(|| self.execute(k, q, d, traced)));
        let op = match result {
            Ok(op) => op?,
            Err(_) => {
                return Ok(OpResult {
                    outcome: Outcome::Panicked,
                    wall_us: 0.0,
                    bytes_stored: 0,
                    node_retries: 0,
                    stages_skipped: 0,
                    layers: None,
                })
            }
        };
        if op.outcome == Outcome::Correct {
            self.check_op_shape(q, &op)?;
        }
        Ok(op)
    }

    fn execute(&self, k: usize, q: &Query, d: usize, traced: bool) -> Result<OpResult, String> {
        let mut layers = Layers::default();
        let started = clock::now();
        let config = match &self.search {
            Some(params) => {
                let (config, configs_explored) = best_config(&q.dag, params)?;
                layers.configs_explored = configs_explored as f64;
                layers.materialized_ops = config.materialized_count() as f64;
                Cow::Owned(config)
            }
            None => Cow::Borrowed(&q.config),
        };
        layers.search_us = if self.search.is_some() { micros(started) } else { 0.0 };
        let injector = match self.workload {
            Workload::RecoverBestMem => FailureInjector::random_first_attempts(
                &stage_roots(&q.dag, &config),
                NODES,
                KILL_P,
                mix(self.seed, 1 + k as u64),
            ),
            _ => FailureInjector::none(),
        };

        let started = clock::now();
        let store: Box<dyn StoreBackend> = match self.workload {
            Workload::ResumeDisk => Box::new(open_disk(&dataset_dir(&self.checkpoint, d))?),
            _ => Box::new(MemBackend::new()),
        };
        layers.open_us = micros(started);
        let before = store.stats();
        let opts = RunOptions::default();
        let (report, run_us) = if traced {
            let timed = TimingStore::new(&*store);
            let rec = SpanRecorder::default();
            let started = clock::now();
            let report = run_query_resumable_traced(
                &q.plan,
                &config,
                &self.catalogs[d],
                &injector,
                &opts,
                &timed,
                None,
                &rec,
            );
            let run_us = micros(started);
            let log = timed.into_log();
            let after = store.stats();
            let attempt_us = rec.attempt_us()?;
            layers.stage_us = report.stage_timings.iter().map(|t| t.wall_us as f64).sum();
            layers.attempt_us = attempt_us;
            layers.node_retries = report.node_retries as f64;
            layers.stages_skipped = report.stages_skipped as f64;
            layers.put_us = log.put_us;
            layers.puts = log.puts as f64;
            layers.fsyncs = (after.fsyncs - before.fsyncs) as f64;
            layers.get_us = log.get_us;
            layers.gets = log.gets as f64;
            layers.read_bytes = (after.bytes_read - before.bytes_read) as f64;
            layers.store_calls = log.calls as f64;
            layers.wall_us = layers.search_us + layers.open_us + run_us;
            layers.coord_us = layers.wall_us
                - layers.search_us
                - layers.open_us
                - layers.stage_us
                - layers.put_us;
            (report, run_us)
        } else {
            let started = clock::now();
            let report =
                run_query_resumable(&q.plan, &config, &self.catalogs[d], &injector, &opts, &*store);
            (report, micros(started))
        };
        if self.workload == Workload::ScanJoinMem {
            let after = store.stats();
            if after.logical_rows_written != before.logical_rows_written
                || after.rows_read != before.rows_read
            {
                return Err(format!("{}: scan-join-mem touched the store", q.name));
            }
        }
        let outcome = if report.aborted {
            Outcome::Aborted
        } else if sorted(report.results) != q.references[d] {
            Outcome::WrongResult
        } else {
            Outcome::Correct
        };
        Ok(OpResult {
            outcome,
            wall_us: layers.search_us + layers.open_us + run_us,
            bytes_stored: report.bytes_materialized,
            node_retries: report.node_retries,
            stages_skipped: report.stages_skipped,
            layers: traced.then_some(layers),
        })
    }

    /// The per-operation half of each workload's shape.
    fn check_op_shape(&self, q: &Query, op: &OpResult) -> Result<(), String> {
        let bad = match self.workload {
            Workload::ScanJoinMem => {
                op.layers.is_some_and(|l| l.store_calls > 0.0).then_some("made store calls")
            }
            Workload::RecoverBestMem => (op.bytes_stored == 0).then_some("stored nothing"),
            Workload::ResumeDisk => {
                if op.bytes_stored > 0 {
                    Some("stored bytes")
                } else if op.stages_skipped == 0 {
                    Some("skipped no stage")
                } else {
                    None
                }
            }
        };
        match bad {
            Some(what) => Err(format!("{}: a {} query {what}", q.name, self.workload.name())),
            None => Ok(()),
        }
    }

    /// The run-level half of the shape: checked once a run has finished.
    pub fn check_run_shape(&self, node_retries: u64) -> Result<(), String> {
        if self.workload == Workload::RecoverBestMem && node_retries == 0 {
            return Err("recover-best-mem retried no node".into());
        }
        Ok(())
    }
}

/// One set-up: for every dataset, generate the data, load the catalog
/// and, for `resume-disk` (`resume` set), commit the checkpoint of `plan`
/// to the dataset's directory under `checkpoint`.
fn setup_all(
    seed: u64,
    plan: &EnginePlan,
    resume: Option<&MatConfig>,
    checkpoint: &Path,
) -> Result<(Vec<Catalog>, SetupTimes), String> {
    let mut t = SetupTimes::default();
    let mut catalogs = Vec::with_capacity(DATASETS);
    for d in 0..DATASETS {
        catalogs.push(setup_dataset(
            mix(mix(seed, 0), d as u64),
            plan,
            resume,
            &dataset_dir(checkpoint, d),
            &mut t,
        )?);
    }
    Ok((catalogs, t))
}

/// Sets one dataset up, adding its set-up times to `t`.
fn setup_dataset(
    data_seed: u64,
    plan: &EnginePlan,
    resume: Option<&MatConfig>,
    checkpoint: &Path,
    t: &mut SetupTimes,
) -> Result<Catalog, String> {
    let started = clock::now();
    let db = Database::generate(SCALE_FACTOR, data_seed);
    t.datagen_s += micros(started) / 1e6;
    let started = clock::now();
    let catalog = load_catalog(&db, NODES);
    t.catalog_s += micros(started) / 1e6;
    drop(db);
    if let Some(config) = resume {
        remove_dir(checkpoint)?;
        let started = clock::now();
        let store = open_disk(checkpoint)?;
        let report = run_query_resumable(
            plan,
            config,
            &catalog,
            &FailureInjector::none(),
            &RunOptions::default(),
            &store,
        );
        drop(store);
        t.checkpoint_s += micros(started) / 1e6;
        if report.aborted || report.bytes_materialized == 0 {
            return Err("resume-disk set-up committed no checkpoint".into());
        }
    }
    Ok(catalog)
}

fn dataset_dir(checkpoint: &Path, d: usize) -> PathBuf {
    checkpoint.join(d.to_string())
}

/// The configuration materializing only Q5's largest intermediate.
fn resume_config(q5: &EnginePlan) -> Result<MatConfig, String> {
    let op = q5
        .op_ids()
        .find(|&id| q5.op(id).name == RESUME_CHECKPOINT_OP)
        .ok_or("Q5 has no ⋈ R,N,C,O,L operator")?;
    MatConfig::from_materialized_free_ops(&q5.to_plan_dag(), &[OpId(op.0)])
        .map_err(|e| format!("resume checkpoint config: {e}"))
}

/// Cost parameters of the paper's default 1 h MTBF cluster.
fn hour_params() -> CostParams {
    CostParams::new(HOUR, MTTR)
}

/// The cost-based configuration of `dag` and the configurations the
/// search explored.
fn best_config(dag: &PlanDag, params: &CostParams) -> Result<(MatConfig, u64), String> {
    let (best, stats) =
        find_best_ft_plan(std::slice::from_ref(dag), params, &PruneOptions::default())
            .map_err(|e| format!("find_best_ft_plan: {e}"))?;
    Ok((best.config, stats.configs_explored))
}

/// Collapsed stage roots of `(dag, config)`: the injector's stages.
fn stage_roots(dag: &PlanDag, config: &MatConfig) -> Vec<u32> {
    let collapsed = CollapsedPlan::collapse(dag, config, 1.0);
    collapsed.op_ids().map(|cid| collapsed.op(cid).root.0).collect()
}

fn sorted(mut results: Vec<(EOpId, Vec<Row>)>) -> Vec<(EOpId, Vec<Row>)> {
    results.sort_by_key(|(id, _)| *id);
    for (_, rows) in &mut results {
        rows.sort_by(|a, b| {
            a.iter()
                .zip(b.iter())
                .map(|(x, y)| x.total_cmp(y))
                .find(|o| o.is_ne())
                .unwrap_or(a.len().cmp(&b.len()))
        });
    }
    results
}

fn open_disk(dir: &Path) -> Result<DiskBackend, String> {
    DiskBackend::open(dir).map_err(|e| format!("open store {}: {e}", dir.display()))
}

fn remove_dir(dir: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            Err(format!("remove {}: {e}", dir.display()))
        }
        _ => Ok(()),
    }
}

/// SplitMix64 of `seed` and a stream index: data and injector seeds all
/// derive from the workload seed.
fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE5_E9B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
