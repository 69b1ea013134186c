//! Regression test for the distributed-memory levels (DESIGN.md §9):
//! with `cfg.hypergraph.dist.distributed` set, the SPMD V-cycle must
//! produce the *bit-identical* partition — and therefore identical
//! cost-model values — as with the flag off (every level replicated) at
//! the same rank count, on cage-style workloads, for k ∈ {4, 8} and both
//! dynamics (structure and weight perturbations) — and through whole
//! sessions whose world changes by failures and planned resizes.

use dlb::core::{
    repartition_parallel, Algorithm, FaultPlan, RepartConfig, RepartProblem, RepartResult,
    Session, WorldPlan,
};
use dlb::graphpart::{partition_kway, GraphConfig};
use dlb::mpisim::run_spmd;
use dlb::workloads::{Dataset, DatasetKind, EpochSnapshot, EpochStream, Perturbation};

const RANK_COUNTS: [usize; 3] = [1, 2, 4];

/// One perturbed cage-style epoch: the repartitioning problem every
/// driver below solves.
fn snapshot(k: usize, perturbation: Perturbation, seed: u64) -> EpochSnapshot {
    let d = Dataset::generate(DatasetKind::Cage14, 0.001, seed);
    let initial = partition_kway(&d.graph, k, &GraphConfig::seeded(seed)).part;
    let mut stream = EpochStream::new(d.graph, perturbation, k, initial, seed);
    stream.next_epoch()
}

/// Runs `algorithm` collectively on `ranks` simulated ranks, with the
/// distributed driver on or off, and returns rank 0's result.
fn run(snapshot: &EpochSnapshot, k: usize, algorithm: Algorithm, ranks: usize, distributed: bool) -> RepartResult {
    let problem = RepartProblem {
        hypergraph: &snapshot.hypergraph,
        graph: &snapshot.graph,
        old_part: &snapshot.old_part,
        k,
        alpha: 50.0,
    };
    let mut cfg = RepartConfig::seeded(11);
    cfg.hypergraph.dist.distributed = distributed;
    // Low threshold so several levels stay distributed at this scale.
    cfg.hypergraph.dist.gather_threshold = 256;
    let mut results = run_spmd(ranks, |comm| {
        repartition_parallel(comm, &problem, algorithm, &cfg)
    });
    for r in &results[1..] {
        assert_eq!(r.new_part, results[0].new_part, "ranks disagree internally");
    }
    results.swap_remove(0)
}

fn assert_equivalent(dist: &RepartResult, repl: &RepartResult, context: &str) {
    assert_eq!(dist.new_part, repl.new_part, "partition diverged: {context}");
    // Identical partitions must yield bit-identical cost-model values.
    assert_eq!(dist.cost.comm, repl.cost.comm, "comm cost diverged: {context}");
    assert_eq!(
        dist.cost.migration, repl.cost.migration,
        "migration cost diverged: {context}"
    );
    assert_eq!(dist.cost.total(), repl.cost.total(), "total cost diverged: {context}");
    assert_eq!(dist.moved, repl.moved, "move count diverged: {context}");
    assert_eq!(dist.imbalance, repl.imbalance, "imbalance diverged: {context}");
}

#[test]
fn distributed_repart_matches_replicated_for_both_dynamics() {
    for (name, perturbation) in [
        ("structure", Perturbation::structure()),
        ("weights", Perturbation::weights()),
    ] {
        for k in [4usize, 8] {
            let snap = snapshot(k, perturbation.clone(), 23);
            for ranks in RANK_COUNTS {
                let dist = run(&snap, k, Algorithm::ZoltanRepart, ranks, true);
                let repl = run(&snap, k, Algorithm::ZoltanRepart, ranks, false);
                assert_equivalent(
                    &dist,
                    &repl,
                    &format!("dynamic={name} k={k} ranks={ranks}"),
                );
            }
        }
    }
}

#[test]
fn distributed_scratch_matches_replicated() {
    let snap = snapshot(8, Perturbation::structure(), 31);
    for ranks in RANK_COUNTS {
        let dist = run(&snap, 8, Algorithm::ZoltanScratch, ranks, true);
        let repl = run(&snap, 8, Algorithm::ZoltanScratch, ranks, false);
        assert_equivalent(&dist, &repl, &format!("scratch ranks={ranks}"));
    }
}

/// Run-to-run reproducibility: the owner-computes driver must give the
/// same bits on a repeated invocation of the same problem — the
/// incremental ghost exchange and delta sigma events (DESIGN.md §17)
/// may not leak any scheduling nondeterminism into the result.
#[test]
fn distributed_repart_is_reproducible_run_to_run() {
    let snap = snapshot(4, Perturbation::structure(), 23);
    for ranks in RANK_COUNTS {
        let first = run(&snap, 4, Algorithm::ZoltanRepart, ranks, true);
        let second = run(&snap, 4, Algorithm::ZoltanRepart, ranks, true);
        assert_equivalent(&first, &second, &format!("repeat ranks={ranks}"));
    }
}

/// Failures and planned resizes repartition with the session's config,
/// so a session whose world shrinks and grows runs the distributed
/// driver throughout and must reproduce the replicated session's
/// per-epoch outputs bit for bit.
#[test]
fn distributed_world_transitions_match_replicated() {
    let run = |ranks: usize, distributed: bool| {
        let mut cfg = RepartConfig::seeded(7);
        cfg.hypergraph.dist.distributed = distributed;
        cfg.hypergraph.dist.gather_threshold = 64;
        let s = Session::new(cfg)
            .algorithm(Algorithm::ZoltanRepart)
            .alpha(50.0)
            .epochs(5)
            .ranks(ranks)
            .measured(true)
            .fault_plan(FaultPlan::parse("7:rank1@2").unwrap())
            .world_plan(WorldPlan::parse("7:join5@3,leave0@4").unwrap())
            .workload_factory(|_| {
                let d = Dataset::generate(DatasetKind::Cage14, 0.001, 7);
                let initial = partition_kway(&d.graph, 4, &GraphConfig::seeded(7)).part;
                EpochStream::new(d.graph, Perturbation::weights(), 4, initial, 7)
            })
            .run()
            .unwrap();
        assert_eq!(s.total_recoveries() + s.total_resizes(), 3);
        s.reports
            .iter()
            .map(|r| {
                let e = r.execution.as_ref().expect("measured run");
                (r.cost.comm, r.cost.migration, r.moved, r.world_k, e.makespan())
            })
            .collect::<Vec<_>>()
    };
    for ranks in [2usize, 4] {
        assert_eq!(run(ranks, true), run(ranks, false), "ranks={ranks}");
    }
}
