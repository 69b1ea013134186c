//! Localized parallel FM refinement (Section 4.3, parallel).
//!
//! Each rank proposes moves for its **owned** boundary vertices against a
//! private copy of the global partition state (so proposals within one
//! rank are internally consistent), then all proposals are exchanged
//! (all-gather) and applied on every rank in the same deterministic
//! order, re-validating each move's gain and balance feasibility against
//! the evolving shared state. Several pass-pairs run per level, exactly
//! the "multiple pass-pairs, each vertex considered for a move" structure
//! the paper describes.

use dlb_hypergraph::{Hypergraph, PartId};
use dlb_mpisim::{BlockDist, Comm};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::config::{PartTargets, RefinementConfig};
use crate::fixed::FixedAssignment;
use crate::refine::{MoveScratch, PartitionState};

/// One rank's proposed move.
type Move = (usize, PartId); // (vertex, destination part)

/// Proposal accept rule, shared with the distributed driver: strictly
/// improving moves, or zero-gain moves away from an over-target part.
pub(crate) fn accepts_proposal(gain: f64, source_weight: f64, source_target: f64) -> bool {
    gain > 0.0 || (gain == 0.0 && source_weight > source_target)
}

/// Revalidation accept rule applied against the evolving shared state,
/// shared with the distributed driver: strictly improving, or zero-gain
/// moves that shift weight from the heavier to the lighter side.
pub(crate) fn accepts_revalidated(gain: f64, from_weight: f64, to_weight: f64, w: f64) -> bool {
    gain > 0.0 || (gain == 0.0 && from_weight > to_weight + w)
}

/// Proposes moves for owned boundary vertices on a private state copy.
fn propose_local_moves(
    state: &mut PartitionState,
    targets: &PartTargets,
    fixed: &FixedAssignment,
    range: &std::ops::Range<usize>,
    rng: &mut StdRng,
) -> Vec<Move> {
    let mut scratch = MoveScratch::new(targets.k());
    let mut boundary: Vec<usize> = state
        .boundary_vertices()
        .into_iter()
        .filter(|v| range.contains(v) && !fixed.is_fixed(*v))
        .collect();
    boundary.shuffle(rng);

    let mut moves = Vec::new();
    for v in boundary {
        if let Some((to, gain)) = state.best_move(v, targets, &mut scratch) {
            if accepts_proposal(gain, state.weights[state.part[v]], targets.target[state.part[v]]) {
                state.apply(v, to);
                moves.push((v, to));
            }
        }
    }
    moves
}

/// One parallel refinement pass. Returns the number of moves applied
/// (identical on every rank).
fn par_pass(
    comm: &mut Comm,
    state: &mut PartitionState,
    targets: &PartTargets,
    fixed: &FixedAssignment,
    h: &Hypergraph,
    rng: &mut StdRng,
) -> usize {
    let dist = BlockDist::new(h.num_vertices(), comm.size());
    let my_range = dist.range(comm.rank());

    // Propose on a private copy so a rank's own proposals compose.
    let mut private = PartitionState::new(h, targets.k(), state.part.clone());
    let shared_draw: u64 = rng.gen();
    let mut my_rng =
        StdRng::seed_from_u64(shared_draw ^ (comm.rank() as u64).wrapping_mul(0xC0FF_EE00_1234_5678));
    let my_moves = propose_local_moves(&mut private, targets, fixed, &my_range, &mut my_rng);

    // Exchange and apply deterministically (rank order, proposal order),
    // revalidating against the evolving shared state.
    let all_moves: Vec<Vec<Move>> = comm.allgather(my_moves);
    let mut applied = 0usize;
    for rank_moves in &all_moves {
        for &(v, to) in rank_moves {
            if fixed.is_fixed(v) || state.part[v] == to {
                continue;
            }
            let w = h.vertex_weight(v);
            if state.weights[to] + w > targets.cap(to) || !state.aux_fits(v, to, targets) {
                continue;
            }
            let gain = state.gain(v, to);
            if accepts_revalidated(gain, state.weights[state.part[v]], state.weights[to], w) {
                state.apply(v, to);
                applied += 1;
            }
        }
    }
    applied
}

/// Parallel refinement: greedily restores balance (collectively, using
/// the same deterministic logic on every rank), then runs localized FM
/// pass-pairs until a pass applies no moves.
pub fn par_refine(
    comm: &mut Comm,
    h: &Hypergraph,
    targets: &PartTargets,
    fixed: &FixedAssignment,
    part: &mut Vec<PartId>,
    cfg: &RefinementConfig,
    rng: &mut StdRng,
) {
    let k = targets.k();
    if k < 2 || h.num_vertices() == 0 {
        return;
    }
    let mut state = PartitionState::new(h, k, std::mem::take(part));

    // Balance restoration is deterministic given identical state, so all
    // ranks perform it redundantly without communication (it is rare and
    // cheap relative to FM).
    let mut scratch = MoveScratch::new(k);
    crate::refine::rebalance(&mut state, targets, fixed, &mut scratch);
    // Auxiliary feasibility repair: deterministic given identical state,
    // so ranks run it redundantly in lockstep like `rebalance`. Never
    // reached at arity 1.
    if !targets.aux.is_empty() && !state.feasible(targets) {
        crate::refine::greedy_repair(&mut state, targets, fixed);
    }

    for _ in 0..cfg.max_passes {
        let moved = par_pass(comm, &mut state, targets, fixed, h, rng);
        if moved == 0 {
            break;
        }
    }
    *part = state.part;
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_hypergraph::metrics;
    use dlb_mpisim::run_spmd;

    #[test]
    fn parallel_refine_improves_and_agrees() {
        let h = crate::tests::grid_hypergraph(10, 10);
        let targets = PartTargets::uniform(100.0, 2, 0.05);
        let fixed = FixedAssignment::free(100);
        let cfg = RefinementConfig::default();
        // Column-parity stripes: bad cut.
        let initial: Vec<usize> = (0..100).map(|v| v % 2).collect();
        let before = metrics::cutsize_connectivity(&h, &initial, 2);
        let results = run_spmd(4, |comm| {
            let mut part = initial.clone();
            let mut rng = StdRng::seed_from_u64(3);
            par_refine(comm, &h, &targets, &fixed, &mut part, &cfg, &mut rng);
            part
        });
        for r in &results[1..] {
            assert_eq!(*r, results[0], "ranks disagree after refinement");
        }
        let after = metrics::cutsize_connectivity(&h, &results[0], 2);
        assert!(after < before, "cut {before} -> {after}");
        assert!(metrics::imbalance(&h, &results[0], 2) <= 1.05 + 1e-9);
    }

    #[test]
    fn parallel_refine_keeps_fixed_vertices() {
        let h = crate::tests::grid_hypergraph(8, 8);
        let targets = PartTargets::uniform(64.0, 2, 0.05);
        let mut fixed = FixedAssignment::free(64);
        let initial: Vec<usize> = (0..64).map(|v| v % 2).collect();
        for v in (0..64).step_by(5) {
            fixed.fix(v, initial[v]);
        }
        let cfg = RefinementConfig::default();
        let results = run_spmd(2, |comm| {
            let mut part = initial.clone();
            let mut rng = StdRng::seed_from_u64(5);
            par_refine(comm, &h, &targets, &fixed, &mut part, &cfg, &mut rng);
            part
        });
        for v in (0..64).step_by(5) {
            assert_eq!(results[0][v], initial[v], "fixed vertex {v} moved");
        }
    }
}
