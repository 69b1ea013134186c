//! The four workloads: what each builds from its seed, what it times,
//! and which outputs it checks.

use std::hint::black_box;
use std::time::Instant;

use dlb_amr::{AmrConfig, AmrStream};
use dlb_core::{
    measure_epoch, Algorithm, EpochReport, NetworkModel, RepartConfig, Session, SessionError,
    SimulationSummary,
};
use dlb_graphpart::{partition_kway, GraphConfig};
use dlb_hypergraph::convert::column_net_model_unit;
use dlb_hypergraph::{metrics, Hypergraph};
use dlb_mpisim::run_spmd;
use dlb_partitioner::{partition_hypergraph, Config, Determinism, PartitionResult, Scheme};
use dlb_trace::Counter;
use dlb_workloads::{AmrSource, Dataset, DatasetKind};

use crate::heap;
use crate::layers::TraceTotals;
use crate::metrics::Values;
use crate::source::TimedSource;
use crate::stats::{max, mean, median};

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["cage-static", "rmat-fast", "amr-incremental", "amr-spmd"];

/// Parts in every partition.
const K: usize = 8;
/// Iterations per epoch: the weight of communication against migration.
const ALPHA: f64 = 10.0;
/// Seed of the partitioners' own random choices. The workload seed only
/// shapes the inputs.
const CONFIG_SEED: u64 = 42;
/// Shared-memory threads of every serial partition call.
const THREADS: usize = 2;
/// Simulated ranks of `amr-spmd`.
const RANKS: usize = 2;
const RMAT_EDGE_FACTOR: usize = 8;
/// AMR streams that get an untimed warm-up session, which gives the
/// peak heap. A session's peak varies by about a sixth from one stream
/// to the next, with the mesh each grows, so it is averaged over several.
const AMR_WARMUPS: usize = 4;
/// The traced pass lists every span whose self time is at least this
/// share of the traced wall time.
pub const HOT_SHARE: f64 = 0.10;

/// Input sizes.
pub struct Sizes {
    /// Scale of the cage14 generator (1.0 is the full matrix).
    pub cage_scale: f64,
    /// log2 of the RMAT vertex count.
    pub rmat_scale: u32,
    pub amr: AmrConfig,
    pub amr_epochs: usize,
    /// Inputs a static run builds from its seed and partitions in turn.
    pub cage_instances: usize,
    pub rmat_instances: usize,
    /// AMR streams a run builds from its seed and runs sessions on in
    /// turn.
    pub amr_instances: usize,
}

impl Sizes {
    #[cfg(test)]
    pub fn tiny() -> Self {
        Sizes {
            cage_scale: 0.0005,
            rmat_scale: 10,
            amr: AmrConfig::small(),
            amr_epochs: 2,
            cage_instances: 2,
            rmat_instances: 2,
            amr_instances: 2,
        }
    }

    pub fn standard() -> Self {
        Sizes {
            cage_scale: 0.003,
            rmat_scale: 16,
            amr: AmrConfig::for_scale(1),
            amr_epochs: 6,
            // Partition time varies from one cage14 instance to the next
            // by about a sixth, so a run averages over six.
            cage_instances: 6,
            rmat_instances: 3,
            amr_instances: 10,
        }
    }
}

/// What a run is asked to do.
pub struct RunSpec {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a run measured.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
    /// Input sizes and sample counts, for the provenance line.
    pub provenance: Vec<(&'static str, f64)>,
    /// Traced pass only: spans above [`HOT_SHARE`] of the traced wall.
    pub hot_spans: Vec<(&'static str, f64)>,
    /// Untraced wall time of every timed operation (partition call or
    /// epoch), seconds.
    pub samples: Vec<f64>,
}

/// Runs workload `name`, or returns `None` for an unknown name.
pub fn run(name: &str, spec: &RunSpec, sizes: &Sizes) -> Option<Outcome> {
    Some(match name {
        "cage-static" => {
            let mut cfg = Config::seeded(CONFIG_SEED);
            cfg.threads = THREADS;
            run_static(spec, sizes.cage_instances, &cfg, None, |seed| {
                cage_input(sizes.cage_scale, seed)
            })
        }
        "rmat-fast" => {
            // The throughput profile of `perf`'s RMAT section.
            let mut strict = Config::seeded(CONFIG_SEED);
            strict.scheme = Scheme::DirectKway;
            strict.initial.num_attempts = 2;
            strict.refinement.max_passes = 2;
            strict.threads = THREADS;
            let mut fast = strict.clone();
            fast.determinism = Determinism::Fast;
            run_static(spec, sizes.rmat_instances, &fast, Some(&strict), |seed| {
                rmat_input(sizes.rmat_scale, seed)
            })
        }
        "amr-incremental" => run_amr(spec, sizes, false),
        "amr-spmd" => run_amr(spec, sizes, true),
        _ => return None,
    })
}

/// Counts operations and the ones whose output checks failed.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn record(&mut self, what: &str, failures: &[String]) {
        self.attempted += 1;
        if !failures.is_empty() {
            self.failed += 1;
            eprintln!("check failed on {what}: {}", failures.join("; "));
        }
    }
}

/// Seed of input instance `i` of a run; instance 0 is the run's seed.
fn instance_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Runs `op` until `seconds` have passed and it ran at least `min` times;
/// returns what each call returned.
fn repeat_for<T>(seconds: f64, min: usize, mut op: impl FnMut() -> T) -> Vec<T> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min || start.elapsed().as_secs_f64() < seconds {
        out.push(op());
    }
    out
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

// ---------------------------------------------------------------------
// Static workloads: back-to-back partitions of a few hypergraphs.

struct StaticInput {
    h: Hypergraph,
    setup_s: f64,
    build_s: f64,
}

fn cage_input(scale: f64, seed: u64) -> StaticInput {
    let t0 = Instant::now();
    let d = Dataset::generate(DatasetKind::Cage14, scale, seed);
    let t1 = Instant::now();
    let h = column_net_model_unit(&d.graph);
    StaticInput {
        h,
        setup_s: secs(t0),
        build_s: secs(t1),
    }
}

/// The RMAT generator emits the hypergraph directly, so its build time
/// is the whole set-up.
fn rmat_input(scale: u32, seed: u64) -> StaticInput {
    let t0 = Instant::now();
    let h = dlb_bench::rmat_hypergraph(scale, RMAT_EDGE_FACTOR, seed);
    let s = secs(t0);
    StaticInput {
        h,
        setup_s: s,
        build_s: s,
    }
}

/// Checks every partition of one static input: ids in range, the
/// returned cut equals a recomputation, balance within ε; Strict
/// partitions must repeat bit for bit, Fast cuts stay within
/// `fast_cut_factor` of the Strict reference.
struct StaticChecker<'a> {
    h: &'a Hypergraph,
    epsilon: f64,
    fast_cut_factor: f64,
    /// Cut of a Strict partition of `h`; `None` for a Strict workload.
    reference_cut: Option<f64>,
    /// The first partition of `h`.
    first: Option<Vec<usize>>,
}

impl StaticChecker<'_> {
    fn check(&mut self, r: &PartitionResult) -> Vec<String> {
        let mut failures = Vec::new();
        let n = self.h.num_vertices();
        if r.part.len() != n || r.part.iter().any(|&p| p >= K) {
            failures.push("part ids out of range".to_string());
        } else {
            let cut = metrics::cutsize_connectivity(self.h, &r.part, K);
            if (cut - r.cut).abs() > 1e-9 * cut.abs().max(1.0) {
                failures.push(format!("returned cut {} but recomputed {cut}", r.cut));
            }
            let imb = metrics::imbalance(self.h, &r.part, K);
            if imb > 1.0 + self.epsilon + 1e-9 {
                failures.push(format!("imbalance {imb} exceeds 1 + {}", self.epsilon));
            }
        }
        match (self.reference_cut, &self.first) {
            (Some(strict), _) if r.cut > self.fast_cut_factor * strict + 1e-9 => {
                failures.push(format!(
                    "Fast cut {} exceeds {} x Strict cut {strict}",
                    r.cut, self.fast_cut_factor
                ))
            }
            (None, Some(first)) if *first != r.part => {
                failures.push("Strict partition differs from the input's first".to_string())
            }
            _ => {}
        }
        if self.first.is_none() {
            self.first = Some(r.part.clone());
        }
        failures
    }
}

/// One static input with its checker and what its calls returned.
struct StaticCase<'a> {
    checker: StaticChecker<'a>,
    cuts: Vec<f64>,
    /// Largest imbalance of any call.
    imbalance: f64,
}

fn run_static(
    spec: &RunSpec,
    instances: usize,
    cfg: &Config,
    strict_reference: Option<&Config>,
    make: impl Fn(u64) -> StaticInput,
) -> Outcome {
    let instances = if spec.trace { 1 } else { instances };
    let (mut setups, mut builds) = (Vec::new(), Vec::new());
    let inputs: Vec<Hypergraph> = (0..instances)
        .map(|i| {
            let input = make(instance_seed(spec.seed, i));
            setups.push(input.setup_s);
            builds.push(input.build_s);
            input.h
        })
        .collect();
    let mut cases: Vec<StaticCase> = inputs
        .iter()
        .map(|h| StaticCase {
            checker: StaticChecker {
                h,
                epsilon: cfg.epsilon,
                fast_cut_factor: cfg.fast_cut_factor,
                // Untimed: the quality reference of the Fast contract.
                reference_cut: strict_reference.map(|c| partition_hypergraph(h, K, c).cut),
                first: None,
            },
            cuts: Vec::new(),
            imbalance: 0.0,
        })
        .collect();
    let mut tally = Tally::default();
    let mut record = |case: &mut StaticCase, r: &PartitionResult| {
        tally.record("partition", &case.checker.check(r));
        case.cuts.push(r.cut);
        case.imbalance = case.imbalance.max(r.imbalance);
    };
    // Untimed warm-up (first-touch page faults, lazy pool start-up),
    // which also gives the peak heap of partitioning one input: a copy
    // of input 0 and one call on it, counted together.
    let (r, peak_heap) = heap::peak_during(|| {
        let h = cases[0].checker.h.clone();
        partition_hypergraph(&h, K, cfg)
    });
    record(&mut cases[0], &r);
    // Partitions the first `n` inputs once each; returns the calls' wall
    // times in input order. A round is one call on every input.
    let mut calls = |cfg: &Config, n: usize| -> Vec<f64> {
        let mut walls = Vec::with_capacity(n);
        for case in cases.iter_mut().take(n) {
            let t0 = Instant::now();
            let r = black_box(partition_hypergraph(black_box(case.checker.h), K, cfg));
            walls.push(secs(t0));
            record(case, &r);
        }
        walls
    };
    let mut round = |cfg: &Config| calls(cfg, instances);

    let mut values = Values::default();
    let mut hot_spans = Vec::new();
    let rounds: Vec<Vec<f64>>;
    if spec.trace {
        let budget = spec.seconds / 3.0;
        rounds = repeat_for(budget, 1, || round(cfg));
        let untraced: Vec<f64> = rounds.concat();
        let mut totals = TraceTotals::default();
        let traced = repeat_for(budget, 1, || {
            let session = dlb_trace::session();
            let walls = round(cfg);
            totals.add(&session.finish());
            walls
        })
        .concat();
        let mut single = cfg.clone();
        single.threads = 1;
        let one_thread = repeat_for(budget, 1, || round(&single)).concat();

        let pins = inputs[0].num_pins() as f64;
        hot_spans = totals.hot_spans(traced.iter().sum(), HOT_SHARE);
        values.set("hypergraph.build_s", median(&builds));
        values.set("hypergraph.pins", pins);
        for name in AMR_AND_CORE_LAYERS.iter().chain(&SPMD_LAYERS) {
            values.set(name, 0.0);
        }
        partitioner_layers(&mut values, &totals, traced.len() as f64, pins);
        values.set(
            "partitioner.speedup_2t",
            median(&one_thread) / median(&untraced),
        );
        values.set("trace.overhead", median(&traced) / median(&untraced) - 1.0);
        values.set("trace.leaf_coverage", totals.leaf_coverage());
    } else {
        rounds = repeat_for(spec.seconds, 2, || round(cfg));
        // Every figure is taken per input and then averaged over the
        // inputs, so each input weighs the same.
        let per_input = |f: &dyn Fn(usize) -> f64| mean(&(0..instances).map(f).collect::<Vec<_>>());
        let walls_of = |i: usize| rounds.iter().map(|r| r[i]).collect::<Vec<_>>();
        let partition_s = per_input(&|i| median(&walls_of(i)));
        values.set("setup_s", median(&setups));
        values.set("peak_heap_mb", peak_heap as f64 / 1e6);
        values.set("partition_s", partition_s);
        // A static workload's epoch is one partition call.
        values.set("epoch_s", partition_s);
        values.set("epoch_max_s", per_input(&|i| max(&walls_of(i))));
        values.set("cut", per_input(&|i| median(&cases[i].cuts)));
        let imbalances = cases.iter().map(|c| c.imbalance);
        values.set("imbalance", imbalances.fold(0.0, f64::max));
        // The application cost of each input's first partition under the
        // measured model (α iterations, nothing migrates).
        let execs: Vec<_> = cases
            .iter()
            .map(|c| {
                let part = c
                    .checker
                    .first
                    .as_ref()
                    .expect("every input was partitioned");
                measure_epoch(c.checker.h, part, part, K, ALPHA, &NetworkModel::default())
            })
            .collect();
        values.set("cost_volume", per_input(&|i| execs[i].cost_volume()));
        values.set("makespan_model_s", per_input(&|i| execs[i].makespan()));
    }
    let h = &inputs[0];
    Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        values,
        provenance: vec![
            ("instances", instances as f64),
            ("vertices", h.num_vertices() as f64),
            ("nets", h.num_nets() as f64),
            ("pins", h.num_pins() as f64),
        ],
        hot_spans,
        samples: rounds.concat(),
    }
}

/// Per-layer metrics of layers only the AMR workloads reach.
const AMR_AND_CORE_LAYERS: [&str; 10] = [
    "graphpart.initial_s",
    "amr.next_s",
    "amr.commit_s",
    "amr.cells",
    "core.repart_s",
    "core.patch_s",
    "core.measure_s",
    "core.delta_epochs",
    "core.full_rebuilds",
    "core.migration_items",
];

/// Per-layer metrics of layers only `amr-spmd` reaches.
const SPMD_LAYERS: [&str; 5] = [
    "par.dist_coarsen_s",
    "par.dist_initial_s",
    "par.dist_refine_s",
    "mpisim.msgs_per_epoch",
    "mpisim.bytes_per_epoch",
];

/// The partitioner's phase times and work counts, per operation
/// (partition call or epoch), from `ops` traced operations over inputs
/// of `pins` pins each.
fn partitioner_layers(values: &mut Values, t: &TraceTotals, ops: f64, pins: f64) {
    let refine_s = t.span_s(&["refine.level", "par.refine.level"]);
    let attempted = t.counter(Counter::FmMovesAttempted);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    values.set("partitioner.coarsen_s", t.span_s(&["coarsen.level"]) / ops);
    values.set(
        "partitioner.initial_s",
        t.span_s(&["initial", "par.initial"]) / ops,
    );
    values.set("partitioner.refine_s", refine_s / ops);
    values.set("partitioner.vcycle_s", t.span_s(&["vcycle.iterate"]) / ops);
    values.set("partitioner.warm_self_s", t.self_s("partition.warm") / ops);
    values.set(
        "partitioner.pins_scanned_per_pin",
        ratio(t.counter(Counter::CoarsenPinsScanned), pins * ops),
    );
    values.set("partitioner.fm_moves_attempted", attempted / ops);
    values.set(
        "partitioner.fm_accept_ratio",
        ratio(t.counter(Counter::FmMovesAccepted), attempted),
    );
    values.set(
        "partitioner.refine_ns_per_move",
        ratio(refine_s * 1e9, attempted),
    );
    values.set(
        "partitioner.rebalance_invocations",
        t.counter(Counter::RebalanceInvocations) / ops,
    );
}

// ---------------------------------------------------------------------
// AMR workloads: sessions of adaptive epochs on the quadtree stream.

/// One AMR session, from set-up to the last epoch.
struct AmrRun {
    setup: AmrSetup,
    summary: Result<SimulationSummary, SessionError>,
    epoch_walls: Vec<f64>,
    next_s: f64,
    commit_s: f64,
    /// SPMD only: messages and bytes sent, summed over ranks.
    msgs: u64,
    bytes: u64,
    /// SPMD only: whether every rank returned the same reports.
    ranks_agree: bool,
}

/// Set-up of one AMR session (rank 0's, on `amr-spmd`).
struct AmrSetup {
    setup_s: f64,
    /// Initial lowering (graph and hypergraph of the starting mesh).
    build_s: f64,
    /// Initial `partition_kway` of the starting mesh.
    kway_s: f64,
    pins: usize,
}

fn amr_setup(cfg: AmrConfig, seed: u64) -> (AmrSource, AmrSetup) {
    let t0 = Instant::now();
    let stream = AmrStream::new(cfg, K, seed);
    let t1 = Instant::now();
    let low = stream.initial_lowering();
    let build_s = secs(t1);
    let t2 = Instant::now();
    let mut gcfg = GraphConfig::seeded(CONFIG_SEED);
    gcfg.epsilon = RepartConfig::seeded(CONFIG_SEED).epsilon;
    let init = partition_kway(&low.graph, K, &gcfg).part;
    let kway_s = secs(t2);
    let pins = low.hypergraph.num_pins();
    let source = AmrSource::new(stream, &init);
    (
        source,
        AmrSetup {
            setup_s: secs(t0),
            build_s,
            kway_s,
            pins,
        },
    )
}

fn amr_session(sizes: &Sizes, seed: u64, spmd: bool, threads: usize) -> AmrRun {
    let mut cfg = RepartConfig::seeded(CONFIG_SEED);
    cfg.hypergraph.threads = threads;
    cfg.hypergraph.dist.distributed = spmd;
    let finish = |setup, timed: TimedSource<AmrSource>, summary, end| AmrRun {
        setup,
        summary,
        epoch_walls: timed.epoch_walls(end),
        next_s: timed.next.iter().map(|d| d.as_secs_f64()).sum(),
        commit_s: timed.commit.iter().map(|d| d.as_secs_f64()).sum(),
        msgs: 0,
        bytes: 0,
        ranks_agree: true,
    };
    if spmd {
        let mut ranks = run_spmd(RANKS, |comm| {
            let (source, setup) = amr_setup(sizes.amr, seed);
            let mut timed = TimedSource::new(source);
            let summary = new_session(&cfg, sizes.amr_epochs)
                .workload(&mut timed)
                .run_on(comm);
            let end = Instant::now();
            (finish(setup, timed, summary, end), comm.stats())
        });
        let reports = |r: &AmrRun| r.summary.as_ref().ok().map(|s| report_keys(&s.reports));
        let ranks_agree = ranks
            .windows(2)
            .all(|w| reports(&w[0].0) == reports(&w[1].0));
        let msgs = ranks.iter().map(|(_, s)| s.messages_sent).sum();
        let bytes = ranks.iter().map(|(_, s)| s.bytes_sent).sum();
        let (mut run, _) = ranks.swap_remove(0);
        run.msgs = msgs;
        run.bytes = bytes;
        run.ranks_agree = ranks_agree;
        run
    } else {
        let (source, setup) = amr_setup(sizes.amr, seed);
        let mut timed = TimedSource::new(source);
        let summary = new_session(&cfg, sizes.amr_epochs)
            .incremental(true)
            .workload(&mut timed)
            .run();
        finish(setup, timed, summary, Instant::now())
    }
}

fn new_session<'a>(cfg: &RepartConfig, epochs: usize) -> Session<'a> {
    Session::new(cfg.clone())
        .algorithm(Algorithm::ZoltanRepart)
        .alpha(ALPHA)
        .epochs(epochs)
        .measured(true)
}

/// The deterministic part of each epoch's report (everything but wall
/// times), for comparing ranks and repeated sessions.
fn report_keys(reports: &[EpochReport]) -> Vec<String> {
    reports
        .iter()
        .map(|r| {
            format!(
                "{} {:?} {:?} {:?} {} {} {:?}",
                r.epoch,
                r.cost.comm,
                r.cost.migration,
                r.imbalance,
                r.moved,
                r.num_vertices,
                r.execution.map(|e| e.cost_volume())
            )
        })
        .collect()
}

/// Checks one session's epochs: the session returned `Ok` with every
/// requested epoch, each within balance, every rank agreeing, and the
/// same reports as the first session on its input (the pipeline is
/// Strict at every thread count).
fn check_session(run: &AmrRun, epochs: usize, first: &mut Option<Vec<String>>, tally: &mut Tally) {
    let epsilon = RepartConfig::seeded(CONFIG_SEED).epsilon;
    let reports = match &run.summary {
        Ok(s) => s.reports.as_slice(),
        Err(e) => {
            for _ in 0..epochs {
                tally.record("epoch", &[format!("session failed: {e}")]);
            }
            return;
        }
    };
    let keys = report_keys(reports);
    let first = first.get_or_insert_with(|| keys.clone());
    for i in 0..epochs {
        let mut failures = Vec::new();
        match reports.get(i) {
            None => failures.push(format!(
                "session returned {} of {epochs} epochs",
                reports.len()
            )),
            Some(r) if r.imbalance > 1.0 + epsilon + 1e-9 => failures.push(format!(
                "epoch {} imbalance {} exceeds 1 + {epsilon}",
                r.epoch, r.imbalance
            )),
            Some(_) => {}
        }
        if !run.ranks_agree {
            failures.push("ranks returned different reports".to_string());
        }
        if keys.get(i) != first.get(i) {
            failures.push(format!(
                "epoch {} differs from the first session on its input",
                i + 1
            ));
        }
        tally.record("epoch", &failures);
    }
}

fn run_amr(spec: &RunSpec, sizes: &Sizes, spmd: bool) -> Outcome {
    let epochs = sizes.amr_epochs;
    let instances = if spec.trace { 1 } else { sizes.amr_instances };
    let mut tally = Tally::default();
    let mut firsts: Vec<Option<Vec<String>>> = vec![None; instances];
    // Runs one session on input `i`.
    let mut session_on = |i: usize, threads: usize| {
        let run = amr_session(sizes, instance_seed(spec.seed, i), spmd, threads);
        check_session(&run, epochs, &mut firsts[i], &mut tally);
        run
    };
    let threads = if spmd { 1 } else { THREADS };
    // Untimed warm-up sessions, which also give the peak heap: a
    // session's peak from its set-up on (both ranks together on
    // `amr-spmd`), averaged over the first inputs.
    let peaks: Vec<f64> = (0..AMR_WARMUPS.min(instances))
        .map(|i| heap::peak_during(|| session_on(i, threads)).1 as f64)
        .collect();
    let mut started = 0usize;
    // Runs one session on the next input in turn.
    let mut session = |threads: usize| {
        started += 1;
        session_on((started - 1) % instances, threads)
    };
    let budget = if spec.trace {
        spec.seconds / 3.0
    } else {
        spec.seconds
    };
    let runs = repeat_for(budget, instances, || session(threads));
    let ok: Vec<&SimulationSummary> = runs
        .iter()
        .filter_map(|r| r.summary.as_ref().ok())
        .collect();
    let all_reports = || ok.iter().flat_map(|s| s.reports.iter());
    let repart: Vec<f64> = all_reports().map(|r| r.elapsed.as_secs_f64()).collect();
    let walls: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.epoch_walls.iter().copied())
        .collect();
    let epochs_run = walls.len().max(1) as f64;
    let of_runs = |f: fn(&AmrRun) -> f64| runs.iter().map(f).collect::<Vec<f64>>();

    let mut values = Values::default();
    let mut hot_spans = Vec::new();
    if spec.trace {
        let mut totals = TraceTotals::default();
        let traced = repeat_for(budget, 1, || {
            let trace = dlb_trace::session();
            let run = session(threads);
            totals.add(&trace.finish());
            run
        });
        let session_wall = |r: &[AmrRun]| {
            median(
                &r.iter()
                    .map(|r| r.epoch_walls.iter().sum())
                    .collect::<Vec<f64>>(),
            )
        };
        let traced_wall: f64 = traced.iter().flat_map(|r| r.epoch_walls.iter()).sum();
        let traced_epochs = traced
            .iter()
            .map(|r| r.epoch_walls.len())
            .sum::<usize>()
            .max(1) as f64;
        hot_spans = totals.hot_spans(traced_wall, HOT_SHARE);
        let pins = median(&of_runs(|r| r.setup.pins as f64));
        values.set("hypergraph.build_s", median(&of_runs(|r| r.setup.build_s)));
        values.set("hypergraph.pins", pins);
        values.set("graphpart.initial_s", median(&of_runs(|r| r.setup.kway_s)));
        values.set(
            "amr.next_s",
            of_runs(|r| r.next_s).iter().sum::<f64>() / epochs_run,
        );
        values.set(
            "amr.commit_s",
            of_runs(|r| r.commit_s).iter().sum::<f64>() / epochs_run,
        );
        values.set(
            "amr.cells",
            all_reports().map(|r| r.num_vertices as f64).sum::<f64>() / epochs_run,
        );
        values.set("core.repart_s", median(&repart));
        values.set(
            "core.patch_s",
            totals.span_s(&["delta.patch"]) / traced_epochs,
        );
        values.set(
            "core.measure_s",
            totals.span_s(&["exec.measure"]) / traced_epochs,
        );
        let per_session = traced.len() as f64;
        values.set(
            "core.delta_epochs",
            totals.counter(Counter::DeltaEpochs) / per_session,
        );
        values.set(
            "core.full_rebuilds",
            totals.counter(Counter::FullRebuilds) / per_session,
        );
        values.set(
            "core.migration_items",
            totals.counter(Counter::MigrationItemsMoved) / traced_epochs,
        );
        partitioner_layers(&mut values, &totals, traced_epochs, pins);
        // Each rank of `amr-spmd` already runs one partitioner thread, so
        // there is no single-thread baseline to compare against.
        let speedup = if spmd {
            0.0
        } else {
            let single = repeat_for(budget, 1, || session(1));
            let single_repart: Vec<f64> = single
                .iter()
                .filter_map(|r| r.summary.as_ref().ok())
                .flat_map(|s| s.reports.iter().map(|r| r.elapsed.as_secs_f64()))
                .collect();
            median(&single_repart) / median(&repart)
        };
        values.set("partitioner.speedup_2t", speedup);
        values.set(
            "par.dist_coarsen_s",
            totals.span_s(&["dist.coarsen.level"]) / traced_epochs,
        );
        values.set(
            "par.dist_initial_s",
            totals.span_s(&["dist.initial"]) / traced_epochs,
        );
        values.set(
            "par.dist_refine_s",
            totals.span_s(&["dist.refine.level"]) / traced_epochs,
        );
        values.set(
            "mpisim.msgs_per_epoch",
            of_runs(|r| r.msgs as f64).iter().sum::<f64>() / epochs_run,
        );
        values.set(
            "mpisim.bytes_per_epoch",
            of_runs(|r| r.bytes as f64).iter().sum::<f64>() / epochs_run,
        );
        values.set(
            "trace.overhead",
            session_wall(&traced) / session_wall(&runs) - 1.0,
        );
        values.set("trace.leaf_coverage", totals.leaf_coverage());
    } else {
        // Every figure is taken per input and then averaged over the
        // inputs, so each input weighs the same whatever number of
        // sessions ran on it. Quality comes from each input's first
        // session (later ones repeat it; the checks make sure).
        let firsts: Vec<&SimulationSummary> = runs[..instances]
            .iter()
            .filter_map(|r| r.summary.as_ref().ok())
            .collect();
        let mean_of_firsts = |f: fn(&SimulationSummary) -> Option<f64>| {
            mean(&firsts.iter().filter_map(|s| f(s)).collect::<Vec<_>>())
        };
        // Per input, the median over its sessions of `f`. Epoch times
        // enter as a session's mean: warm and cold epochs take very
        // different times, and a median of the mix jumps between them.
        let per_input = |f: &dyn Fn(&AmrRun) -> Option<f64>| {
            let on_input = |i| runs.iter().skip(i).step_by(instances).filter_map(f);
            mean(
                &(0..instances)
                    .map(|i| median(&on_input(i).collect::<Vec<_>>()))
                    .collect::<Vec<_>>(),
            )
        };
        let ok = |r: &AmrRun| r.summary.is_ok();
        values.set("setup_s", median(&of_runs(|r| r.setup.setup_s)));
        values.set(
            "partition_s",
            per_input(&|r| Some(r.summary.as_ref().ok()?.mean_elapsed().as_secs_f64())),
        );
        values.set(
            "epoch_s",
            per_input(&|r| ok(r).then(|| mean(&r.epoch_walls))),
        );
        values.set(
            "epoch_max_s",
            per_input(&|r| ok(r).then(|| max(&r.epoch_walls))),
        );
        values.set("peak_heap_mb", mean(&peaks) / 1e6);
        values.set("cut", mean_of_firsts(|s| Some(s.mean_comm())));
        values.set(
            "imbalance",
            all_reports().map(|r| r.imbalance).fold(0.0, f64::max),
        );
        values.set("cost_volume", mean_of_firsts(|s| s.total_cost_volume()));
        values.set("makespan_model_s", mean_of_firsts(|s| s.mean_makespan()));
    }
    let first_cells = all_reports()
        .take(1)
        .map(|r| r.num_vertices as f64)
        .sum::<f64>();
    Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        values,
        provenance: vec![
            ("instances", instances as f64),
            ("cells", first_cells),
            ("pins", runs[0].setup.pins as f64),
            ("epochs", epochs as f64),
            ("timed_sessions", runs.len() as f64),
        ],
        hot_spans,
        samples: walls,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{catalog, result_line};

    /// Every workload fills its pass's whole catalog and passes its own
    /// output checks.
    #[test]
    fn every_workload_reports_its_catalog() {
        for name in WORKLOADS {
            for trace in [false, true] {
                let spec = RunSpec {
                    seed: 7,
                    seconds: 0.0,
                    trace,
                };
                let out = run(name, &spec, &Sizes::tiny()).expect("known workload");
                assert!(out.attempted > 0 && out.failed == 0, "{name} trace={trace}");
                let line = result_line(catalog(trace), &out.values, out.attempted, out.failed);
                assert!(line.starts_with("{\"correct\": true"), "{name}: {line}");
            }
        }
    }

    #[test]
    fn unknown_workload_is_refused() {
        let spec = RunSpec {
            seed: 1,
            seconds: 0.0,
            trace: false,
        };
        assert!(run("nope", &spec, &Sizes::tiny()).is_none());
    }
}
