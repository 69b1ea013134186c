//! Shared-memory and distributed-memory scaling harness for the
//! multilevel pipeline.
//!
//! Times the thread-parallel kernels — IPM matching, full coarsening,
//! partition-state build + cut evaluation, and the end-to-end
//! partitioner — at several thread counts on the largest bundled
//! workload (cage14), verifies that every thread count produces the
//! bit-identical partition, then runs the distributed V-cycle at
//! several simulated rank counts, verifying bit-identity against the
//! replicated driver and recording per-rank pin storage and **total
//! resident bytes** (owner-computes nets + per-vertex arrays + halos;
//! both must strictly shrink as ranks grow, on any input) plus
//! communication volumes. A memory-budget section partitions an
//! instance sized above a configured single-rank replicated budget at
//! 16/64 simulated ranks, each rank staying below the budget.
//! A final section times the AMR workload pipeline — quadtree
//! adaptation + lowering per epoch, and the measured-makespan execution
//! model on top of repartitioning — and the incremental repartitioning
//! path (delta patch + warm-started refinement vs. full V-cycles every
//! epoch), asserting a competitive ratio ≤ 1.0 at α = 10. Results are
//! written as `BENCH_partitioner.json` in the current directory.
//!
//! An RMAT section compares [`Determinism::Strict`] against
//! [`Determinism::Fast`] on a large power-law hypergraph
//! (`--rmat-scale` log2 vertices): Strict at 1 thread is the quality
//! reference, Fast is timed at 1/2/4/8 threads with its cut asserted
//! within `fast_cut_factor` of Strict and its imbalance within ε. When
//! the host has only one core the multi-thread speedup assertion is
//! skipped (recorded in the JSON) and the pool's overhead is bounded
//! instead: Fast at 2–8 threads must stay within 10% of Fast at 1.
//!
//! Usage: `perf [--scale S] [--seed N] [--k K] [--repeats R]
//! [--rmat-scale S] [--rmat-only] [--dist-memory]
//! [--dist-memory-scale S] [--gate BASELINE.json]`
//! (defaults: scale 0.02, rmat-scale 20, dist-memory-scale 0.003,
//! seed 42, k 8, repeats 3; wall-clock per phase is the minimum over
//! repeats). `--rmat-only` runs just the RMAT section and writes
//! `BENCH_rmat.json`; `--dist-memory` runs just the memory-budget
//! section and writes `BENCH_dist_memory.json`; `--gate` compares the
//! Fast full-partition wall against a checked-in baseline (normalized
//! by a scalar calibration loop to absorb host-speed differences) and
//! exits nonzero on a >15% regression.

use std::fmt::Write as _;
use std::time::Instant;

use dlb_amr::{AmrConfig, AmrStream};
use dlb_core::{Algorithm, RepartConfig, ResizeChoice, Session, WorldPlan};
use dlb_graphpart::{partition_kway, GraphConfig};
use dlb_hypergraph::convert::column_net_model_unit;
use dlb_workloads::AmrSource;
use dlb_hypergraph::{metrics, Hypergraph, VertexLoads};
use dlb_mpisim::run_spmd;
use dlb_partitioner::coarsen::coarsen_to_threads;
use dlb_partitioner::config::PartTargets;
use dlb_partitioner::matching::ipm_matching_threads;
use dlb_partitioner::par::dist::dist_multilevel_stats;
use dlb_partitioner::refine::PartitionState;
use dlb_partitioner::{
    partition_hypergraph, refine_partition_fixed, targets_for, Config, Determinism,
    FixedAssignment,
};
use dlb_workloads::{Dataset, DatasetKind};
use rand::rngs::StdRng;
use rand::SeedableRng;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const RANK_COUNTS: [usize; 3] = [1, 2, 4];

fn parse_flag(args: &[String], flag: &str) -> Option<f64> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

/// Minimum wall-clock milliseconds over `repeats` runs of `f`.
fn time_ms(repeats: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..repeats.max(1) {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// One timed phase: wall-clock per thread count, in THREAD_COUNTS order.
struct Phase {
    name: &'static str,
    wall_ms: Vec<f64>,
}

fn json_map(counts: &[usize], values: &[f64]) -> String {
    let mut s = String::from("{");
    for (i, (&t, &v)) in counts.iter().zip(values).enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(s, "\"{t}\": {v:.4}");
    }
    s.push('}');
    s
}

fn speedups(wall_ms: &[f64]) -> Vec<f64> {
    let base = wall_ms[0];
    wall_ms.iter().map(|&w| if w > 0.0 { base / w } else { 0.0 }).collect()
}

/// Strict-vs-Fast measurements on the RMAT input, plus everything the
/// regression gate and the JSON section need.
struct RmatOut {
    json: String,
    /// Min over thread counts of the Fast full-partition wall — the
    /// gated quantity.
    fast_ms: f64,
    /// Wall of the scalar calibration loop on this host, used to
    /// normalize the gate across machines.
    calib_ms: f64,
}

/// Fixed scalar workload (xorshift stream) timing the host's single-core
/// speed. The gate compares `fast_ms / calib_ms` ratios, so a faster or
/// slower CI machine does not read as a code regression.
fn calibration_ms() -> f64 {
    let t0 = Instant::now();
    let mut acc = 0u64;
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..100_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(x);
    }
    std::hint::black_box(acc);
    t0.elapsed().as_secs_f64() * 1e3
}

/// Extracts the number following `"key":` in a flat JSON document.
fn json_number(doc: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let at = doc.find(&pat)? + pat.len();
    let rest = doc[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Times Strict (reference, 1 thread) vs Fast (1/2/4/8 threads) on a
/// seeded RMAT hypergraph and asserts the Fast quality contract.
fn run_rmat_section(rmat_scale: u32, seed: u64, k: usize, repeats: usize) -> RmatOut {
    const EDGE_FACTOR: usize = 8;
    eprintln!("generating RMAT scale {rmat_scale} (edge factor {EDGE_FACTOR}) ...");
    let h = dlb_bench::rmat_hypergraph(rmat_scale, EDGE_FACTOR, seed);
    let n = h.num_vertices();
    eprintln!("rmat hypergraph: {} vertices, {} nets, {} pins", n, h.num_nets(), h.num_pins());

    let calib_ms = calibration_ms();
    let host_threads = std::thread::available_parallelism().map_or(1, |p| p.get());

    // Throughput profile: direct k-way (one multilevel instead of k-1
    // bisections), fewer GHG attempts and FM pass-pairs. The section
    // measures Strict-vs-Fast *relative* behavior on a million-vertex
    // input; the quality-tuned defaults would multiply every wall by
    // ~25x without changing the comparison.
    let mut strict_cfg = Config::seeded(seed);
    strict_cfg.scheme = dlb_partitioner::Scheme::DirectKway;
    strict_cfg.initial.num_attempts = 2;
    strict_cfg.refinement.max_passes = 2;
    strict_cfg.threads = 1;
    strict_cfg.determinism = Determinism::Strict;
    let mut strict_result = None;
    let strict_ms = time_ms(repeats, || {
        strict_result = Some(partition_hypergraph(&h, k, &strict_cfg));
    });
    let strict = strict_result.unwrap();
    let strict_imb = metrics::imbalance(&h, &strict.part, k);
    eprintln!(
        "  strict @1: {strict_ms:.1} ms, cut {:.1}, imbalance {strict_imb:.4}",
        strict.cut
    );

    let mut fast_walls: Vec<f64> = Vec::new();
    let mut fast_rows = String::new();
    for (i, &t) in THREAD_COUNTS.iter().enumerate() {
        let mut cfg = strict_cfg.clone();
        cfg.threads = t;
        cfg.determinism = Determinism::Fast;
        let mut result = None;
        let wall = time_ms(repeats, || {
            result = Some(partition_hypergraph(&h, k, &cfg));
        });
        let r = result.unwrap();
        let imb = metrics::imbalance(&h, &r.part, k);
        let cut_ratio = if strict.cut > 0.0 { r.cut / strict.cut } else { 1.0 };
        eprintln!(
            "  fast @{t}: {wall:.1} ms, cut {:.1} ({cut_ratio:.4}x strict), imbalance {imb:.4}",
            r.cut
        );
        if t == 1 {
            assert!(
                r.part == strict.part,
                "Fast at 1 thread must be bit-identical to Strict"
            );
        }
        assert!(
            cut_ratio <= cfg.fast_cut_factor + 1e-9,
            "Fast cut at {t} threads is {cut_ratio:.4}x Strict (allowed {:.2}x)",
            cfg.fast_cut_factor
        );
        assert!(
            imb <= 1.0 + cfg.epsilon + 1e-9,
            "Fast imbalance {imb:.4} exceeds 1 + epsilon at {t} threads"
        );
        let _ = writeln!(
            fast_rows,
            "      {{\"threads\": {t}, \"wall_ms\": {wall:.4}, \"cut\": {:.4}, \
             \"cut_ratio_vs_strict\": {cut_ratio:.6}, \"imbalance\": {imb:.6}}}{}",
            r.cut,
            if i + 1 < THREAD_COUNTS.len() { "," } else { "" }
        );
        fast_walls.push(wall);
    }

    // On a single-core host, parallel walls cannot beat serial; what we
    // can bound is the pool's overhead — oversubscribed Fast runs must
    // stay within 10% of the 1-thread wall. Multi-core hosts assert an
    // actual win instead.
    let max_ratio = fast_walls[1..]
        .iter()
        .map(|&w| w / fast_walls[0])
        .fold(0.0f64, f64::max);
    let speedup_check = if host_threads == 1 {
        assert!(
            max_ratio <= 1.10,
            "Fast at 2-8 threads is {max_ratio:.3}x the 1-thread wall (allowed 1.10x)"
        );
        "skipped_host_threads_1"
    } else {
        let best = fast_walls[1..].iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(
            best <= fast_walls[0] * 1.05,
            "Fast multi-thread best {best:.1} ms never beats 1-thread {:.1} ms",
            fast_walls[0]
        );
        "ran"
    };
    let fast_ms = fast_walls.iter().cloned().fold(f64::INFINITY, f64::min);

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "    \"scale\": {rmat_scale},");
    let _ = writeln!(json, "    \"edge_factor\": {EDGE_FACTOR},");
    let _ = writeln!(json, "    \"seed\": {seed},");
    let _ = writeln!(json, "    \"k\": {k},");
    let _ = writeln!(json, "    \"repeats\": {},", repeats.max(1));
    let _ = writeln!(json, "    \"vertices\": {n},");
    let _ = writeln!(json, "    \"nets\": {},", h.num_nets());
    let _ = writeln!(json, "    \"pins\": {},", h.num_pins());
    let _ = writeln!(json, "    \"host_threads\": {host_threads},");
    let _ = writeln!(json, "    \"calibration_ms\": {calib_ms:.4},");
    let _ = writeln!(
        json,
        "    \"strict\": {{\"threads\": 1, \"wall_ms\": {strict_ms:.4}, \
         \"cut\": {:.4}, \"imbalance\": {strict_imb:.6}}},",
        strict.cut
    );
    let _ = writeln!(json, "    \"fast\": [");
    json.push_str(&fast_rows);
    let _ = writeln!(json, "    ],");
    let _ = writeln!(json, "    \"fast_full_partition_ms\": {fast_ms:.4},");
    let _ = writeln!(json, "    \"fast_at_1_bit_identical_to_strict\": true,");
    let _ = writeln!(json, "    \"max_fast_wall_ratio_vs_1thread\": {max_ratio:.4},");
    let _ = writeln!(json, "    \"speedup_check\": \"{speedup_check}\"");
    json.push_str("  }");
    RmatOut { json, fast_ms, calib_ms }
}

/// Compares the Fast full-partition wall against a checked-in baseline,
/// normalized by the calibration loop, and exits nonzero on a >15%
/// regression.
fn run_gate(path: &str, rmat: &RmatOut) {
    let baseline = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("gate: cannot read baseline {path}: {e}");
        std::process::exit(1);
    });
    let base_fast = json_number(&baseline, "fast_full_partition_ms").unwrap_or_else(|| {
        eprintln!("gate: baseline {path} has no fast_full_partition_ms");
        std::process::exit(1);
    });
    let base_calib = json_number(&baseline, "calibration_ms").filter(|&c| c > 0.0);
    let (current, base) = match base_calib {
        Some(bc) => (rmat.fast_ms / rmat.calib_ms, base_fast / bc),
        None => (rmat.fast_ms, base_fast),
    };
    let ratio = current / base;
    eprintln!(
        "gate: fast {0:.1} ms (calib {1:.1} ms) vs baseline {base_fast:.1} ms -> \
         normalized ratio {ratio:.3}",
        rmat.fast_ms, rmat.calib_ms
    );
    if ratio > 1.15 {
        eprintln!("gate: FAIL — Fast full_partition regressed {:.1}% (>15%)", (ratio - 1.0) * 1e2);
        std::process::exit(1);
    }
    eprintln!("gate: ok");
}

/// Single-rank replicated memory budget for the `dist_memory` section:
/// the generated instance's residency under replication must exceed
/// this, and every rank of the 16- and 64-rank distributed runs must
/// stay below it.
const DIST_MEMORY_BUDGET_BYTES: usize = 8 << 20;
/// Rank counts exercised by the `dist_memory` section.
const DIST_MEMORY_RANKS: [usize; 2] = [16, 64];

struct DistMemorySection {
    json: String,
    ok: bool,
}

/// Partitions a random-net cage-style instance sized *above* the
/// single-rank replicated budget at 16 and 64 simulated ranks, and
/// checks every rank's total residency (pins + metadata + per-vertex
/// arrays) stays *below* it — the capability the replicated driver
/// cannot offer at any rank count, since it keeps the whole instance
/// everywhere.
fn run_dist_memory_section(scale: f64, seed: u64, k: usize) -> DistMemorySection {
    let kind = DatasetKind::Cage14;
    eprintln!("dist-memory: generating {} at scale {scale} ...", kind.name());
    let dataset = Dataset::generate(kind, scale, seed);
    let h: Hypergraph = column_net_model_unit(&dataset.graph);
    eprintln!(
        "dist-memory: {} vertices, {} nets, {} pins",
        h.num_vertices(),
        h.num_nets(),
        h.num_pins()
    );
    let fixed = FixedAssignment::free(h.num_vertices());
    let targets = PartTargets::uniform(h.total_vertex_weight(), k, 0.05);
    let mut cfg = Config::seeded(seed);
    cfg.threads = 1;
    cfg.dist.distributed = true;
    // A small gather point keeps the redundant per-rank coarse solve
    // cheap — at 64 simulated ranks on an oversubscribed host those
    // solves serialize, and they are the section's wall-clock floor.
    cfg.dist.gather_threshold = 256;

    let run_at = |ranks: usize| -> (usize, bool) {
        let results = run_spmd(ranks, |comm| {
            // The serialized coarse solves also mean a rank can sit in
            // the winner allreduce for minutes while peers compute;
            // widen the deadlock guard so it cannot misfire here.
            comm.set_recv_timeout(std::time::Duration::from_secs(600));
            let mut rng = StdRng::seed_from_u64(seed);
            dist_multilevel_stats(comm, &h, &targets, &fixed, &cfg, &mut rng)
        });
        let agree = results.iter().all(|(p, _)| *p == results[0].0);
        let distributed = results.iter().all(|(_, s)| s.dist_levels > 0);
        let max_bytes = results.iter().map(|(_, s)| s.total_resident_bytes).max().unwrap();
        (max_bytes, agree && distributed)
    };

    // At one rank, owner-computes storage *is* the whole instance: its
    // residency is what every rank of a replicated run would hold.
    let (replicated_bytes, _) = run_at(1);
    let over_budget = replicated_bytes > DIST_MEMORY_BUDGET_BYTES;
    eprintln!(
        "dist-memory: replicated residency {replicated_bytes} B, budget \
         {DIST_MEMORY_BUDGET_BYTES} B (instance over budget: {over_budget})"
    );
    let mut ok = over_budget;
    let mut per_rank: Vec<(usize, usize)> = Vec::new();
    for &ranks in &DIST_MEMORY_RANKS {
        eprintln!("dist-memory: distributed V-cycle on {ranks} simulated rank(s) ...");
        let (max_bytes, healthy) = run_at(ranks);
        let fits = max_bytes <= DIST_MEMORY_BUDGET_BYTES;
        eprintln!("  max per-rank resident {max_bytes} B (fits budget: {fits})");
        ok &= healthy && fits;
        per_rank.push((ranks, max_bytes));
    }
    // More ranks, strictly less per-rank residency.
    ok &= per_rank.windows(2).all(|w| w[1].1 < w[0].1);

    let mut json = String::from("{");
    let _ = write!(
        json,
        "\"budget_bytes\": {DIST_MEMORY_BUDGET_BYTES}, \
         \"replicated_bytes\": {replicated_bytes}, \
         \"replicated_over_budget\": {over_budget}, \"runs\": ["
    );
    for (i, (ranks, bytes)) in per_rank.iter().enumerate() {
        let _ = write!(
            json,
            "{{\"ranks\": {ranks}, \"max_rank_resident_bytes\": {bytes}}}{}",
            if i + 1 < per_rank.len() { ", " } else { "" }
        );
    }
    let _ = write!(json, "], \"ok\": {ok}}}");
    DistMemorySection { json, ok }
}

/// One distributed V-cycle measurement at a fixed simulated rank count.
struct DistRun {
    ranks: usize,
    /// Max over ranks of the per-rank pin storage for the cycle,
    /// including stub copies of this rank's own pins under remote nets.
    max_rank_pins: usize,
    /// Max over ranks of the canonical (owned-net) pin storage — the
    /// share that scales as `|pins|/p` regardless of net locality.
    max_rank_owned_pins: usize,
    /// Max over ranks of the largest per-level ghost count.
    max_rank_ghosts: usize,
    /// Max over ranks of the rank's **total** residency for the cycle:
    /// pins, per-net metadata, and every per-vertex array (weights,
    /// sizes, fixed flags, partition slice, projection maps, ghost
    /// caches). The end-to-end memory figure the harness gates on.
    max_rank_resident_bytes: usize,
    /// Messages sent, summed over all ranks.
    messages_sent: u64,
    /// Payload bytes sent, summed over all ranks.
    bytes_sent: u64,
    /// Whether every rank matched the replicated driver bit-for-bit.
    identical: bool,
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = parse_flag(&args, "--scale").unwrap_or(0.02);
    let seed = parse_flag(&args, "--seed").unwrap_or(42.0) as u64;
    let k = parse_flag(&args, "--k").unwrap_or(8.0) as usize;
    let repeats = parse_flag(&args, "--repeats").unwrap_or(3.0) as usize;
    let rmat_scale = parse_flag(&args, "--rmat-scale").unwrap_or(20.0) as u32;
    let rmat_only = args.iter().any(|a| a == "--rmat-only");
    let dist_memory_only = args.iter().any(|a| a == "--dist-memory");
    let dist_memory_scale = parse_flag(&args, "--dist-memory-scale").unwrap_or(0.003);
    let gate_path = args
        .iter()
        .position(|a| a == "--gate")
        .and_then(|i| args.get(i + 1))
        .cloned();

    if dist_memory_only {
        let section = run_dist_memory_section(dist_memory_scale, seed, k);
        let mut json = String::from("{\n");
        let _ = writeln!(json, "  \"bench\": \"partitioner_dist_memory\",");
        let _ = writeln!(json, "  \"dist_memory\": {}", section.json);
        json.push_str("}\n");
        std::fs::write("BENCH_dist_memory.json", &json).expect("write BENCH_dist_memory.json");
        print!("{json}");
        assert!(section.ok, "dist-memory budget section failed (see stderr)");
        return;
    }

    let rmat = run_rmat_section(rmat_scale, seed, k, repeats);
    if let Some(path) = &gate_path {
        run_gate(path, &rmat);
    }
    if rmat_only {
        let mut json = String::from("{\n");
        let _ = writeln!(json, "  \"bench\": \"partitioner_rmat\",");
        let _ = writeln!(json, "  \"rmat\": {}", rmat.json);
        json.push_str("}\n");
        std::fs::write("BENCH_rmat.json", &json).expect("write BENCH_rmat.json");
        print!("{json}");
        return;
    }

    let kind = DatasetKind::Cage14;
    eprintln!("generating {} at scale {scale} ...", kind.name());
    let dataset = Dataset::generate(kind, scale, seed);
    let h: Hypergraph = column_net_model_unit(&dataset.graph);
    let n = h.num_vertices();
    eprintln!("hypergraph: {} vertices, {} nets, {} pins", n, h.num_nets(), h.num_pins());

    let fixed = FixedAssignment::free(n);
    let coarsen_cfg = dlb_partitioner::CoarseningConfig::default();
    let coarse_target = (coarsen_cfg.coarse_to_factor * k).max(coarsen_cfg.min_coarse_vertices);

    let mut phases: Vec<Phase> = vec![
        Phase { name: "matching", wall_ms: Vec::new() },
        Phase { name: "coarsening", wall_ms: Vec::new() },
        Phase { name: "state_build_cut", wall_ms: Vec::new() },
        Phase { name: "full_partition", wall_ms: Vec::new() },
    ];
    let mut cuts: Vec<f64> = Vec::new();
    let mut parts: Vec<Vec<usize>> = Vec::new();

    // A fixed block partition exercises the state build + cut phase.
    let block_part: Vec<usize> = (0..n).map(|v| v * k / n.max(1)).collect();

    for &t in &THREAD_COUNTS {
        eprintln!("timing {t} thread(s) ...");
        phases[0].wall_ms.push(time_ms(repeats, || {
            let mut rng = StdRng::seed_from_u64(seed);
            let m = ipm_matching_threads(&h, &fixed, None, &coarsen_cfg, &mut rng, t);
            assert!(m.num_pairs * 2 <= n);
        }));
        phases[1].wall_ms.push(time_ms(repeats, || {
            let mut rng = StdRng::seed_from_u64(seed);
            let hierarchy = coarsen_to_threads(&h, &fixed, coarse_target, &coarsen_cfg, &mut rng, t);
            assert!(!hierarchy.levels.is_empty());
        }));
        phases[2].wall_ms.push(time_ms(repeats, || {
            let state = PartitionState::new_threads(&h, k, block_part.clone(), t);
            let cut = state.cut();
            assert!(cut >= 0.0);
        }));

        let mut cfg = Config::seeded(seed);
        cfg.threads = t;
        let mut result = None;
        phases[3].wall_ms.push(time_ms(repeats, || {
            result = Some(partition_hypergraph(&h, k, &cfg));
        }));
        let r = result.unwrap();
        cuts.push(r.cut);
        parts.push(r.part);
    }

    let identical = parts.iter().all(|p| *p == parts[0]);
    let cut = cuts[0];
    let imbalance = metrics::imbalance(&h, &parts[0], k);

    // --- Distributed-memory V-cycle: per-rank pin storage and comm
    // volume at each rank count, checked bit-identical against the
    // replicated driver at the same rank count. ---
    let targets = PartTargets::uniform(h.total_vertex_weight(), k, 0.05);
    let mut dist_cfg = Config::seeded(seed);
    dist_cfg.threads = 1;
    let repl_cfg = dist_cfg.clone();
    dist_cfg.dist.distributed = true;
    let mut dist_runs: Vec<DistRun> = Vec::new();
    for &ranks in &RANK_COUNTS {
        eprintln!("distributed V-cycle on {ranks} simulated rank(s) ...");
        let repl_parts = run_spmd(ranks, |comm| {
            let mut rng = StdRng::seed_from_u64(seed);
            dist_multilevel_stats(comm, &h, &targets, &fixed, &repl_cfg, &mut rng).0
        });
        let dist_results = run_spmd(ranks, |comm| {
            let mut rng = StdRng::seed_from_u64(seed);
            let (part, stats) =
                dist_multilevel_stats(comm, &h, &targets, &fixed, &dist_cfg, &mut rng);
            (part, stats, comm.stats())
        });
        let mut run = DistRun {
            ranks,
            max_rank_pins: 0,
            max_rank_owned_pins: 0,
            max_rank_ghosts: 0,
            max_rank_resident_bytes: 0,
            messages_sent: 0,
            bytes_sent: 0,
            identical: true,
        };
        for ((part, stats, comm_stats), repl) in dist_results.iter().zip(&repl_parts) {
            run.identical &= part == repl;
            run.max_rank_pins = run.max_rank_pins.max(stats.total_local_pins);
            run.max_rank_owned_pins = run.max_rank_owned_pins.max(stats.total_owned_pins);
            run.max_rank_ghosts = run.max_rank_ghosts.max(stats.peak_ghosts);
            run.max_rank_resident_bytes =
                run.max_rank_resident_bytes.max(stats.total_resident_bytes);
            run.messages_sent += comm_stats.messages_sent;
            run.bytes_sent += comm_stats.bytes_sent;
        }
        eprintln!(
            "  max per-rank pins {} (owned {}), ghosts {}, resident {} B, msgs {}, bytes {}, \
             identical {}",
            run.max_rank_pins,
            run.max_rank_owned_pins,
            run.max_rank_ghosts,
            run.max_rank_resident_bytes,
            run.messages_sent,
            run.bytes_sent,
            run.identical
        );
        dist_runs.push(run);
    }
    let dist_identical = dist_runs.iter().all(|r| r.identical);
    // Under owner-computes storage every per-rank figure shrinks with
    // the rank count on *any* input, localized or not: a net's full pin
    // list lives only at its owner and a stub holds only this rank's own
    // pins, so cage14's uniformly random net membership no longer
    // inflates a replicated ghost layer. The harness gates on both the
    // canonical (owned) pin share and the end-to-end resident bytes.
    let pins_shrink = dist_runs
        .windows(2)
        .all(|w| w[1].max_rank_owned_pins < w[0].max_rank_owned_pins);
    let bytes_shrink = dist_runs
        .windows(2)
        .all(|w| w[1].max_rank_resident_bytes < w[0].max_rank_resident_bytes);

    // --- Memory budget: ranks 16/64 partition an instance whose
    // replicated residency exceeds the configured single-rank budget,
    // each rank staying below it. ---
    let dist_memory = run_dist_memory_section(dist_memory_scale, seed, k);

    // --- AMR workload pipeline: epoch generation (adapt + lower) and
    // the measured-makespan overhead on top of plain repartitioning. ---
    let amr_cfg = AmrConfig::default();
    let amr_epochs = 4usize;
    eprintln!("AMR pipeline ({amr_epochs} epochs) ...");
    let amr_gen_ms = time_ms(repeats, || {
        let mut stream = AmrStream::new(amr_cfg, k, seed);
        let low = stream.initial_lowering();
        let init: Vec<usize> = (0..low.cells.len()).map(|v| v * k / low.cells.len()).collect();
        stream.set_initial_partition(&init);
        for _ in 0..amr_epochs {
            let e = stream.next_epoch();
            let part = e.old_part.clone();
            stream.commit_assignment(&e.cells, &part);
        }
    });
    let make_amr_source = || {
        let stream = AmrStream::new(amr_cfg, k, seed);
        let low = stream.initial_lowering();
        let init = partition_kway(&low.graph, k, &GraphConfig::seeded(seed)).part;
        AmrSource::new(stream, &init)
    };
    let repart_cfg = RepartConfig::seeded(seed);
    let amr_sim_ms = time_ms(repeats, || {
        let mut source = make_amr_source();
        let s = Session::new(repart_cfg.clone())
            .algorithm(Algorithm::ZoltanRepart)
            .alpha(100.0)
            .epochs(amr_epochs)
            .workload(&mut source)
            .run()
            .expect("valid session");
        assert_eq!(s.reports.len(), amr_epochs);
    });
    let mut amr_mean_makespan = 0.0;
    let amr_measured_ms = time_ms(repeats, || {
        let mut source = make_amr_source();
        let s = Session::new(repart_cfg.clone())
            .algorithm(Algorithm::ZoltanRepart)
            .alpha(100.0)
            .epochs(amr_epochs)
            .measured(true)
            .workload(&mut source)
            .run()
            .expect("valid session");
        amr_mean_makespan = s.mean_makespan().expect("measured run");
    });
    eprintln!(
        "  epoch gen {amr_gen_ms:.2} ms, simulate {amr_sim_ms:.2} ms, \
         measured {amr_measured_ms:.2} ms, mean makespan {amr_mean_makespan:.4} s"
    );

    // --- Incremental repartitioning: delta patch + warm-started
    // refinement vs. a full lowering + V-cycle every epoch, on the same
    // AMR stream. The online competitive ratio (cumulative measured
    // α·comm + migration volume vs. the scratch baseline) must stay at
    // or below 1.0 at α = 10 — warm starts may trade nothing away.
    // Drift threshold 1.0 is the maximal exercise of the warm path:
    // every delta epoch warm-starts, no full-V-cycle fallback ever
    // masks a quality gap. ---
    let incr_alpha = 10.0;
    let incr_threshold = 1.0;
    let incr_epochs = 6usize;
    eprintln!("incremental repartitioning ({incr_epochs} epochs, alpha {incr_alpha}) ...");
    let mut scratch_summary = None;
    let incr_scratch_ms = time_ms(repeats, || {
        let mut source = make_amr_source();
        let s = Session::new(repart_cfg.clone())
            .algorithm(Algorithm::ZoltanRepart)
            .alpha(incr_alpha)
            .epochs(incr_epochs)
            .measured(true)
            .workload(&mut source)
            .run()
            .expect("valid session");
        scratch_summary = Some(s);
    });
    let mut incr_summary = None;
    let incr_warm_ms = time_ms(repeats, || {
        let mut source = make_amr_source();
        let s = Session::new(repart_cfg.clone())
            .algorithm(Algorithm::ZoltanRepart)
            .alpha(incr_alpha)
            .epochs(incr_epochs)
            .measured(true)
            .incremental(true)
            .drift_threshold(incr_threshold)
            .workload(&mut source)
            .run()
            .expect("valid session");
        incr_summary = Some(s);
    });
    let scratch_summary = scratch_summary.unwrap();
    let incr_summary = incr_summary.unwrap();
    let cr = incr_summary
        .competitive_ratio_vs(&scratch_summary)
        .expect("both runs measured the same epoch count");
    let incr_ratio = cr.ratio().expect("nonzero baseline cost");
    eprintln!(
        "  patch+refine {incr_warm_ms:.2} ms vs full V-cycles {incr_scratch_ms:.2} ms; \
         cost volume {:.1} vs {:.1} -> competitive ratio {incr_ratio:.4}",
        cr.policy_cost, cr.baseline_cost
    );
    assert!(
        incr_ratio <= 1.0 + 1e-9,
        "incremental competitive ratio {incr_ratio:.4} exceeds 1.0 at alpha {incr_alpha}"
    );

    // --- Elastic worlds: planned grow/shrink resizes on the same AMR
    // stream at α = 10, with the measured cost model arbitrating
    // repartition-vs-scratch per resize. Reported: the per-resize
    // candidate costs and the choice split. At low α the candidates
    // run close — a resize forces a large reshuffle either way, which
    // is exactly why the driver arbitrates per resize instead of
    // hard-coding either method. ---
    let ela_alpha = 10.0;
    let ela_epochs = 8usize;
    eprintln!("elastic resizes ({ela_epochs} epochs, alpha {ela_alpha}) ...");
    let ela_plan = WorldPlan::new(seed).join(k, 2).leave(1, 4).join(1, 6).leave(k, 8);
    let mut ela_summary = None;
    let ela_ms = time_ms(repeats, || {
        let mut source = make_amr_source();
        let s = Session::new(repart_cfg.clone())
            .algorithm(Algorithm::ZoltanRepart)
            .alpha(ela_alpha)
            .epochs(ela_epochs)
            .measured(true)
            .world_plan(ela_plan.clone())
            .workload(&mut source)
            .run()
            .expect("valid session");
        ela_summary = Some(s);
    });
    let ela_summary = ela_summary.unwrap();
    let ela_records: Vec<_> = ela_summary
        .reports
        .iter()
        .flat_map(|r| &r.transitions)
        .filter_map(|t| Some((t, t.arbitration?)))
        .collect();
    assert_eq!(ela_records.len(), 4, "the plan schedules four resizes");
    let ela_repart_wins =
        ela_records.iter().filter(|(_, a)| a.choice == ResizeChoice::Repart).count();
    let ela_repart_cost =
        ela_records.iter().map(|(_, a)| a.repart_cost).sum::<f64>() / ela_records.len() as f64;
    let ela_scratch_cost =
        ela_records.iter().map(|(_, a)| a.scratch_cost).sum::<f64>() / ela_records.len() as f64;
    for (r, a) in &ela_records {
        eprintln!(
            "  epoch {:>2}: {} -> {} parts via {:<7} repart {:>12.1} vs scratch {:>12.1}",
            r.epoch,
            r.k_before,
            r.k_after,
            a.choice.name(),
            a.repart_cost,
            a.scratch_cost
        );
    }
    eprintln!(
        "  {ela_repart_wins}/{} chose repart; mean candidate cost {ela_repart_cost:.1} \
         (repart) vs {ela_scratch_cost:.1} (scratch); wall {ela_ms:.2} ms",
        ela_records.len()
    );

    // --- Multi-constraint loads (DESIGN.md §16): arity-1 must be free
    // (bit-identical partition, wall within noise of the default scalar
    // path), and a 2-constraint run must reach feasibility on every
    // constraint. Cage gets a synthetic degree-proportional second
    // constraint; the AMR lowering supplies the real flops-vs-bytes
    // divergence, where an aux-skewed warm start provably forces the
    // greedy repair pass to engage. ---
    eprintln!("multi-constraint loads ...");
    let mc_cfg = {
        let mut c = Config::seeded(seed);
        c.threads = 1;
        c
    };
    let arity1_default_ms = time_ms(repeats, || {
        let r = partition_hypergraph(&h, k, &mc_cfg);
        assert!(r.cut >= 0.0);
    });
    let h_arity1 = {
        let mut h1 = h.clone();
        h1.set_loads(VertexLoads::from_scalar(h.loads().scalar().to_vec()));
        h1
    };
    let mut arity1_part = Vec::new();
    let arity1_typed_ms = time_ms(repeats, || {
        arity1_part = partition_hypergraph(&h_arity1, k, &mc_cfg).part;
    });
    assert_eq!(arity1_part, parts[0], "typed arity-1 loads changed the partition");

    let h_cage2 = {
        let mut h2 = h.clone();
        let flops = h.loads().scalar().to_vec();
        let bytes: Vec<f64> = (0..n).map(|v| 1.0 + h.vertex_degree(v) as f64).collect();
        h2.set_loads(VertexLoads::from_columns(vec![flops, bytes]));
        h2
    };
    let cage2_cfg = {
        let mut c = Config::builder().seed(seed).epsilons(&[0.05, 0.10]).build().unwrap();
        c.threads = 1;
        c
    };
    let mut cage2_part = Vec::new();
    let mut cage2_cut = 0.0;
    let cage_arity2_ms = time_ms(repeats, || {
        let r = partition_hypergraph(&h_cage2, k, &cage2_cfg);
        cage2_cut = r.cut;
        cage2_part = r.part;
    });
    let cage2_imb = metrics::imbalance_per_constraint(&h_cage2, &cage2_part, k);

    let amr_mc_cfg = AmrConfig { multi_constraint: true, ..AmrConfig::default() };
    let amr_h = AmrStream::new(amr_mc_cfg, k, seed).initial_lowering().hypergraph;
    assert_eq!(amr_h.load_arity(), 2, "multi-constraint lowering must carry 2 columns");
    let amr_n = amr_h.num_vertices();
    let amr2_cfg = {
        let mut c = Config::builder().seed(seed).epsilons(&[0.05, 0.10]).build().unwrap();
        c.threads = 1;
        c
    };
    let mut amr2_part = Vec::new();
    let mut amr2_cut = 0.0;
    let amr_arity2_ms = time_ms(repeats, || {
        let r = partition_hypergraph(&amr_h, k, &amr2_cfg);
        amr2_cut = r.cut;
        amr2_part = r.part;
    });
    let amr2_imb = metrics::imbalance_per_constraint(&amr_h, &amr2_part, k);
    let amr_targets = targets_for(&amr_h, k, &amr2_cfg);
    let amr_feasible = amr_targets.feasible(
        &metrics::part_weights(&amr_h, &amr2_part, k),
        &metrics::aux_part_loads(&amr_h, &amr2_part, k),
    );
    let amr_scalar_cut = {
        let mut h1 = amr_h.clone();
        h1.set_loads(VertexLoads::from_scalar(amr_h.loads().constraint(0).to_vec()));
        partition_hypergraph(&h1, k, &mc_cfg).cut
    };
    // Warm-start from a seed that piles half the cells onto part 0:
    // the byte constraint (uniform per cell) is violated at entry, so
    // the refiner must invoke the repair pass to recover feasibility.
    let mc_session = dlb_trace::session();
    let warm = {
        let mut c = amr2_cfg.clone();
        c.warm_start = true;
        let seed_part: Vec<usize> =
            (0..amr_n).map(|v| if v < amr_n / 2 { 0 } else { v * k / amr_n }).collect();
        refine_partition_fixed(&amr_h, k, &FixedAssignment::free(amr_n), &seed_part, &c)
    };
    let mc_report = mc_session.finish();
    let repair_invocations = mc_report.counter(dlb_trace::Counter::RepairInvocations);
    let repair_moves = mc_report.counter(dlb_trace::Counter::RepairMovesApplied);
    let warm_feasible = amr_targets.feasible(
        &metrics::part_weights(&amr_h, &warm.part, k),
        &metrics::aux_part_loads(&amr_h, &warm.part, k),
    );
    eprintln!(
        "  cage arity-1 {arity1_default_ms:.2} ms (typed {arity1_typed_ms:.2} ms, identical), \
         arity-2 {cage_arity2_ms:.2} ms, cut {cut:.0} -> {cage2_cut:.0}, \
         imbalance [{:.4}, {:.4}]",
        cage2_imb[0], cage2_imb[1]
    );
    eprintln!(
        "  amr ({amr_n} cells) arity-2 {amr_arity2_ms:.2} ms, cut {amr_scalar_cut:.0} -> \
         {amr2_cut:.0}, imbalance [{:.4}, {:.4}], feasible {amr_feasible}; \
         warm repair: {repair_invocations} invocation(s), {repair_moves} move(s), \
         feasible {warm_feasible}",
        amr2_imb[0], amr2_imb[1]
    );

    // --- Phase attribution: one traced full partition, leaf coverage
    // of the span tree, and the cost of tracing itself (session active
    // vs. the no-session fast path, which must stay within noise). ---
    eprintln!("phase attribution (traced full partition) ...");
    let trace_cfg = {
        let mut c = Config::seeded(seed);
        c.threads = 1;
        c
    };
    let untraced_ms = time_ms(repeats, || {
        let r = partition_hypergraph(&h, k, &trace_cfg);
        assert!(r.cut >= 0.0);
    });
    let session = dlb_trace::session();
    let traced_ms = time_ms(repeats, || {
        let r = partition_hypergraph(&h, k, &trace_cfg);
        assert!(r.cut >= 0.0);
    });
    let trace_report = session.finish();
    let leaf_coverage = trace_report.leaf_coverage("partition").unwrap_or(0.0);
    let trace_overhead = if untraced_ms > 0.0 { traced_ms / untraced_ms - 1.0 } else { 0.0 };
    eprintln!(
        "  untraced {untraced_ms:.2} ms, traced {traced_ms:.2} ms \
         (overhead {:.2}%), leaf coverage {:.1}%, {} spans",
        trace_overhead * 1e2,
        leaf_coverage * 1e2,
        trace_report.spans.len()
    );
    let mut phase_rows: Vec<(String, u64, f64)> = trace_report
        .phase_totals()
        .into_iter()
        .map(|(name, (calls, dur_ns))| (name.to_string(), calls, dur_ns as f64 / 1e6))
        .collect();
    phase_rows.sort_by(|a, b| b.2.total_cmp(&a.2));
    for (name, calls, total_ms) in &phase_rows {
        eprintln!("    {name:<24} {calls:>5} calls {total_ms:>10.3} ms");
    }
    if dlb_trace::COMPILED_IN {
        assert!(
            leaf_coverage >= 0.95,
            "leaf spans cover only {:.1}% of full_partition wall time",
            leaf_coverage * 1e2
        );
    }

    let counts: Vec<usize> = THREAD_COUNTS.to_vec();
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"partitioner\",");
    let _ = writeln!(json, "  \"dataset\": \"{}\",", kind.name());
    let _ = writeln!(json, "  \"scale\": {scale},");
    let _ = writeln!(json, "  \"seed\": {seed},");
    let _ = writeln!(json, "  \"k\": {k},");
    let _ = writeln!(json, "  \"vertices\": {n},");
    let _ = writeln!(json, "  \"nets\": {},", h.num_nets());
    let _ = writeln!(json, "  \"pins\": {},", h.num_pins());
    let _ = writeln!(
        json,
        "  \"host_threads\": {},",
        std::thread::available_parallelism().map_or(1, |p| p.get())
    );
    let _ = writeln!(
        json,
        "  \"thread_counts\": [{}],",
        counts.iter().map(|t| t.to_string()).collect::<Vec<_>>().join(", ")
    );
    let _ = writeln!(json, "  \"phases\": [");
    for (i, phase) in phases.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"wall_ms\": {}, \"speedup\": {}}}{}",
            phase.name,
            json_map(&counts, &phase.wall_ms),
            json_map(&counts, &speedups(&phase.wall_ms)),
            if i + 1 < phases.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"distributed\": [");
    for (i, run) in dist_runs.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"ranks\": {}, \"max_rank_pins\": {}, \"max_rank_owned_pins\": {}, \
             \"max_rank_ghosts\": {}, \"max_rank_resident_bytes\": {}, \
             \"messages_sent\": {}, \"bytes_sent\": {}, \
             \"bit_identical_to_replicated\": {}}}{}",
            run.ranks,
            run.max_rank_pins,
            run.max_rank_owned_pins,
            run.max_rank_ghosts,
            run.max_rank_resident_bytes,
            run.messages_sent,
            run.bytes_sent,
            run.identical,
            if i + 1 < dist_runs.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"dist_rank_owned_pins_strictly_decreasing\": {pins_shrink},");
    let _ = writeln!(json, "  \"dist_rank_resident_bytes_strictly_decreasing\": {bytes_shrink},");
    let _ = writeln!(json, "  \"dist_memory\": {},", dist_memory.json.trim_end());
    let _ = writeln!(
        json,
        "  \"amr\": {{\"epochs\": {amr_epochs}, \"gen_ms\": {amr_gen_ms:.4}, \
         \"simulate_ms\": {amr_sim_ms:.4}, \"measured_ms\": {amr_measured_ms:.4}, \
         \"mean_makespan_s\": {amr_mean_makespan:.6}}},"
    );
    let _ = writeln!(
        json,
        "  \"incremental\": {{\"epochs\": {incr_epochs}, \"alpha\": {incr_alpha}, \
         \"drift_threshold\": {incr_threshold}, \
         \"patch_refine_ms\": {incr_warm_ms:.4}, \"full_vcycle_ms\": {incr_scratch_ms:.4}, \
         \"policy_cost_volume\": {:.4}, \"scratch_cost_volume\": {:.4}, \
         \"competitive_ratio\": {incr_ratio:.6}}},",
        cr.policy_cost, cr.baseline_cost
    );
    let _ = writeln!(
        json,
        "  \"elastic\": {{\"epochs\": {ela_epochs}, \"alpha\": {ela_alpha}, \
         \"resizes\": {}, \"chose_repart\": {ela_repart_wins}, \
         \"mean_repart_cost\": {ela_repart_cost:.4}, \
         \"mean_scratch_cost\": {ela_scratch_cost:.4}, \"wall_ms\": {ela_ms:.4}}},",
        ela_records.len()
    );
    let _ = writeln!(
        json,
        "  \"multiconstraint\": {{\
         \"cage\": {{\"arity1_default_ms\": {arity1_default_ms:.4}, \
         \"arity1_typed_ms\": {arity1_typed_ms:.4}, \"arity1_identical\": true, \
         \"arity2_ms\": {cage_arity2_ms:.4}, \"cut_arity1\": {cut:.4}, \
         \"cut_arity2\": {cage2_cut:.4}, \
         \"imbalance_per_constraint\": [{:.6}, {:.6}]}}, \
         \"amr\": {{\"vertices\": {amr_n}, \"arity2_ms\": {amr_arity2_ms:.4}, \
         \"cut_scalar\": {amr_scalar_cut:.4}, \"cut_arity2\": {amr2_cut:.4}, \
         \"imbalance_per_constraint\": [{:.6}, {:.6}], \"feasible\": {amr_feasible}, \
         \"warm_repair_invocations\": {repair_invocations}, \
         \"warm_repair_moves_applied\": {repair_moves}, \
         \"warm_feasible\": {warm_feasible}}}}},",
        cage2_imb[0], cage2_imb[1], amr2_imb[0], amr2_imb[1]
    );
    let _ = writeln!(
        json,
        "  \"trace\": {{\"compiled_in\": {}, \"untraced_ms\": {untraced_ms:.4}, \
         \"traced_ms\": {traced_ms:.4}, \"overhead\": {trace_overhead:.4}, \
         \"leaf_coverage\": {leaf_coverage:.4}, \"spans\": {}}},",
        dlb_trace::COMPILED_IN,
        trace_report.spans.len()
    );
    let _ = writeln!(json, "  \"rmat\": {},", rmat.json);
    let _ = writeln!(json, "  \"cut\": {cut:.4},");
    let _ = writeln!(json, "  \"imbalance\": {imbalance:.6},");
    let _ = writeln!(json, "  \"bit_identical_across_threads\": {identical}");
    json.push_str("}\n");

    std::fs::write("BENCH_partitioner.json", &json).expect("write BENCH_partitioner.json");
    print!("{json}");
    assert!(identical, "partitions differ across thread counts");
    assert!(dist_identical, "distributed driver diverged from the replicated driver");
    assert!(
        pins_shrink,
        "per-rank owned pin storage should strictly decrease with rank count: {:?}",
        dist_runs.iter().map(|r| (r.ranks, r.max_rank_owned_pins)).collect::<Vec<_>>()
    );
    assert!(
        bytes_shrink,
        "per-rank total resident bytes should strictly decrease with rank count: {:?}",
        dist_runs.iter().map(|r| (r.ranks, r.max_rank_resident_bytes)).collect::<Vec<_>>()
    );
    assert!(dist_memory.ok, "dist-memory budget section failed (see stderr)");
    assert!(amr_feasible, "2-constraint AMR partition violates a constraint: {amr2_imb:?}");
    assert!(
        arity1_typed_ms <= arity1_default_ms * 1.5 + 5.0,
        "typed arity-1 loads cost more than noise over the scalar path: \
         {arity1_typed_ms:.2} ms vs {arity1_default_ms:.2} ms"
    );
    assert!(
        warm_feasible,
        "warm-started 2-constraint refinement left a constraint violated"
    );
    if dlb_trace::COMPILED_IN {
        assert!(
            repair_invocations >= 1,
            "aux-skewed warm start never engaged the repair pass"
        );
    }
}
