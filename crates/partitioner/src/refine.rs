//! Fiduccia–Mattheyses refinement with fixed vertices (Section 4.3).
//!
//! The refiner improves the connectivity-1 cut of a k-way assignment by
//! hill-climbing vertex moves with rollback: within a pass, boundary
//! vertices move one at a time to their best-gain feasible target part
//! (each vertex at most once per pass), the running cumulative gain is
//! tracked, and at the end the pass is rolled back to its best prefix —
//! so individual negative-gain moves are allowed as escapes from local
//! minima, but a pass never ends worse than it started. Fixed vertices
//! are never moved.
//!
//! Gains use the k-1 metric directly: moving `v` from `p` to `q` changes
//! the cut by `Σ_{n ∋ v} c_n·([σ(n,p)=1] − [σ(n,q)=0])`, where `σ(n,p)`
//! is the number of `n`'s pins in part `p`. [`km1_gain`] and
//! [`km1_best_move`] compute it fresh from the pin counts in O(deg·k);
//! they are the definition, and the SPMD refiners call them directly.
//!
//! # The gain cache
//!
//! The serial refiner ([`refine_threads`]) memoizes those sums in a gain
//! cache (Gottesbüren, Heuer, Sanders and Schlag, *Scalable
//! Shared-Memory Hypergraph Partitioning*), so a move is evaluated in
//! O(k) instead of O(deg·k). Per vertex `v` it keeps
//!
//! * `benefit[v]` = Σ c_e over `v`'s nets with σ(e, part v) = 1, and
//! * per part `q`, `present` = Σ c_e over `v`'s nets with σ(e, q) ≥ 1
//!   and `conn`, the number of those nets (`q` is a move candidate iff
//!   `conn > 0`; `present` at `v`'s own part is its total net cost),
//!
//! so that `gain(v, q) = benefit[v] − (present[v,p] − present[v,q])`.
//! The cache is built once per call, per vertex chunk, walking each
//! vertex's nets in the same order as [`km1_best_move`]. A move of `v`
//! from `p` to `q` then updates it only where a net's pin count crosses
//! a threshold:
//!
//! * σ(e,p) reaches 0: every pin of `e` loses `c_e` of `present` and
//!   one `conn` at `p`;
//! * σ(e,q) reaches 1: every pin of `e` gains them at `q`;
//! * σ(e,p) falls to 1: the one pin left in `p` gains `c_e` of benefit;
//! * σ(e,q) rises to 2: the other pin in `q` loses `c_e` of benefit;
//! * `benefit[v]` is re-summed in net order.
//!
//! **Exactness contract.** On integer-valued net costs (unit costs,
//! AMR `state_bytes`, α-scaled migration nets) every cached sum is an
//! exact integer, so cached gains equal the fresh kernel's bit for bit
//! and the refiner makes the same moves it would make without the
//! cache. With fractional costs (the weight-perturbation workload) the
//! deltas may round differently from a fresh sum; the cache is rebuilt
//! per call, so that drift never outlives one [`refine_threads`] call.
//! The SPMD refiners, whose accept rules test `gain == 0.0` on such
//! costs, keep the fresh kernel.
//!
//! With multi-constraint loads every move is additionally capped on each
//! auxiliary constraint, and a separate **greedy repair** pass
//! ([`greedy_repair`]) recovers feasibility when FM stalls: it moves the
//! highest-gain vertices out of the most-violated constraint's heaviest
//! part, accepting only moves that strictly shrink the largest relative
//! overshoot. At arity 1 neither the aux checks nor the repair pass
//! execute a single floating-point operation, so scalar runs stay
//! bitwise identical.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use dlb_hypergraph::{parallel, Hypergraph, PartId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;

use crate::config::{PartTargets, RefinementConfig};
use crate::fixed::FixedAssignment;

/// Nets larger than this do not re-queue their pins after a move. It
/// bounds re-queues only: the gain cache updates every net's pins, and a
/// pin whose gain changed is revalidated exactly when it is popped.
/// Keeps huge nets from making passes quadratic.
const MAX_NET_SIZE_FOR_UPDATES: usize = 400;

/// Incrementally maintained partition state: per-net-per-part pin counts,
/// part weights and, in the serial refiner, the gain cache.
pub struct PartitionState<'a> {
    h: &'a Hypergraph,
    k: usize,
    /// Worker threads for state builds and whole-partition scans
    /// (`cut`, `boundary_vertices`). Any value gives bit-identical
    /// results — all reductions follow the chunked-reduction rule.
    threads: usize,
    /// `sigma[j*k + p]` = number of net `j`'s pins in part `p`.
    sigma: Vec<u32>,
    /// Total vertex weight per part.
    pub weights: Vec<f64>,
    /// Per-part totals of the auxiliary load constraints, flattened as
    /// `aux_weights[(c-1)*k + p]`. Empty when the hypergraph is scalar
    /// (arity 1), so the scalar pipeline never touches it.
    pub aux_weights: Vec<f64>,
    /// Current assignment.
    pub part: Vec<PartId>,
    /// The gain cache (module docs); `None` until
    /// [`Self::build_gain_cache`], and then kept exact by [`Self::apply`].
    cache: Option<GainCache>,
}

/// The memoized k−1 gain terms of every vertex (module docs).
struct GainCache {
    /// `benefit[v]`: Σ c_e over `v`'s nets with σ(e, part v) = 1.
    benefit: Vec<f64>,
    /// `terms[v*k + q]`: `v`'s connection to part `q`.
    terms: Vec<PartTerm>,
    /// Pins touched by the delta rules since the last
    /// [`PartitionState::take_cache_pin_updates`].
    pin_updates: u64,
}

/// One vertex's connection to one part.
#[derive(Clone, Copy, Default)]
struct PartTerm {
    /// Σ c_e over the vertex's nets with σ(e, q) ≥ 1.
    present: f64,
    /// The number of those nets.
    conn: u32,
}

impl<'a> PartitionState<'a> {
    /// Builds the state for `part` on `h`.
    pub fn new(h: &'a Hypergraph, k: usize, part: Vec<PartId>) -> Self {
        Self::new_threads(h, k, part, 1)
    }

    /// [`Self::new`] with an explicit worker-thread count. The sigma
    /// table is built per net chunk and concatenated in chunk order; the
    /// part weights are per-chunk partial sums folded in chunk order —
    /// so the state is bit-identical at every thread count.
    pub fn new_threads(h: &'a Hypergraph, k: usize, part: Vec<PartId>, threads: usize) -> Self {
        assert_eq!(part.len(), h.num_vertices());
        let threads = threads.max(1);
        // Sigma table: each chunk of nets owns the `k`-strided window of
        // the destination buffer directly — no per-chunk vectors, no
        // concatenation pass.
        let mut sigma = vec![0u32; h.num_nets() * k];
        let part_ref = &part;
        parallel::fill_chunks(
            threads,
            h.num_nets(),
            parallel::DEFAULT_CHUNK,
            k,
            &mut sigma,
            |_, range, window| {
                for j in range.clone() {
                    let base = (j - range.start) * k;
                    for &v in h.net(j) {
                        window[base + part_ref[v]] += 1;
                    }
                }
            },
        );
        // Part weights: per-chunk partial vectors live in one arena-backed
        // flat buffer (chunk i owns window i), folded in chunk order —
        // bit-identical at every thread count.
        let n_chunks = parallel::num_chunks(h.num_vertices(), parallel::DEFAULT_CHUNK);
        let mut partials = parallel::scratch_vec_filled::<f64>(n_chunks * k, 0.0);
        parallel::fill_per_chunk(
            threads,
            h.num_vertices(),
            parallel::DEFAULT_CHUNK,
            k,
            &mut partials,
            |_, range, window| {
                for v in range {
                    window[part_ref[v]] += h.vertex_weight(v);
                }
            },
        );
        let mut weights = vec![0.0f64; k];
        for local in partials.chunks(k) {
            for p in 0..k {
                weights[p] += local[p];
            }
        }
        // Auxiliary constraints are new behavior, so a serial (and hence
        // thread-count-independent) accumulation suffices; arity 1 skips
        // this entirely.
        let arity = h.load_arity();
        let mut aux_weights = Vec::new();
        if arity > 1 {
            aux_weights = vec![0.0f64; (arity - 1) * k];
            for c in 1..arity {
                let col = h.loads().constraint(c);
                let row = &mut aux_weights[(c - 1) * k..c * k];
                for (v, &p) in part.iter().enumerate() {
                    row[p] += col[v];
                }
            }
        }
        PartitionState { h, k, threads, sigma, weights, aux_weights, part, cache: None }
    }

    /// Builds the gain cache from the current pin counts, per vertex
    /// chunk. Each vertex walks its nets in the order [`km1_best_move`]
    /// does, so the sums equal the fresh kernel's bit for bit at every
    /// thread count.
    pub(crate) fn build_gain_cache(&mut self) {
        let (h, k, sigma, part) = (self.h, self.k, &self.sigma, &self.part);
        let n = h.num_vertices();
        let mut terms = vec![PartTerm::default(); n * k];
        let chunk = parallel::DEFAULT_CHUNK;
        parallel::fill_chunks(self.threads, n, chunk, k, &mut terms, |_, range, window| {
            for (v, row) in range.zip(window.chunks_mut(k)) {
                for &j in h.vertex_nets(v) {
                    let c = h.net_cost(j);
                    for (q, t) in row.iter_mut().enumerate() {
                        if sigma[j * k + q] > 0 {
                            t.present += c;
                            t.conn += 1;
                        }
                    }
                }
            }
        });
        let mut benefit = vec![0.0f64; n];
        parallel::fill_chunks(self.threads, n, chunk, 1, &mut benefit, |_, range, window| {
            for (v, b) in range.zip(window.iter_mut()) {
                for &j in h.vertex_nets(v) {
                    if sigma[j * k + part[v]] == 1 {
                        *b += h.net_cost(j);
                    }
                }
            }
        });
        self.cache = Some(GainCache { benefit, terms, pin_updates: 0 });
    }

    /// Pins the gain cache's delta rules touched since the last call (0
    /// without a cache), resetting the tally.
    pub(crate) fn take_cache_pin_updates(&mut self) -> u64 {
        self.cache.as_mut().map_or(0, |c| std::mem::take(&mut c.pin_updates))
    }

    #[inline]
    fn sigma(&self, j: usize, p: usize) -> u32 {
        self.sigma[j * self.k + p]
    }

    /// Moves `v` to part `q`, updating pin counts, weights and, when
    /// built, the gain cache.
    pub fn apply(&mut self, v: usize, q: PartId) {
        let p = self.part[v];
        if p == q {
            return;
        }
        let (h, k) = (self.h, self.k);
        // `v` is in `q` from here on, so the pin scans below see it there.
        self.part[v] = q;
        match &mut self.cache {
            None => {
                for &j in h.vertex_nets(v) {
                    self.sigma[j * k + p] -= 1;
                    self.sigma[j * k + q] += 1;
                }
            }
            Some(cache) => {
                let mut benefit = 0.0;
                for &j in h.vertex_nets(v) {
                    self.sigma[j * k + p] -= 1;
                    self.sigma[j * k + q] += 1;
                    let (sp, sq) = (self.sigma[j * k + p], self.sigma[j * k + q]);
                    cache.net_moved(h, k, &self.part, j, v, (p, sp), (q, sq));
                    if sq == 1 {
                        benefit += h.net_cost(j);
                    }
                }
                cache.benefit[v] = benefit;
            }
        }
        let w = self.h.vertex_weight(v);
        self.weights[p] -= w;
        self.weights[q] += w;
        if !self.aux_weights.is_empty() {
            for c in 1..self.h.load_arity() {
                let l = self.h.vertex_load(v, c);
                self.aux_weights[(c - 1) * self.k + p] -= l;
                self.aux_weights[(c - 1) * self.k + q] += l;
            }
        }
    }

    /// Per-part load of auxiliary constraint `c` (1-based, `c ∈ 1..arity`).
    #[inline]
    pub fn aux_weight(&self, c: usize, p: usize) -> f64 {
        self.aux_weights[(c - 1) * self.k + p]
    }

    /// True when moving `v` into `q` respects every auxiliary cap. A
    /// no-op (empty loop, no float ops) when `targets` is scalar.
    #[inline]
    pub fn aux_fits(&self, v: usize, q: PartId, targets: &PartTargets) -> bool {
        for (i, a) in targets.aux.iter().enumerate() {
            if self.aux_weights[i * self.k + q] + self.h.vertex_load(v, i + 1) > a.cap(q) {
                return false;
            }
        }
        true
    }

    /// True iff every part is within its cap on every constraint of
    /// `targets` (with a tiny slack for float noise).
    pub fn feasible(&self, targets: &PartTargets) -> bool {
        let slack = 1e-9;
        for p in 0..self.k {
            if self.weights[p] > targets.cap(p) + slack {
                return false;
            }
        }
        for (i, a) in targets.aux.iter().enumerate() {
            for p in 0..self.k {
                if self.aux_weights[i * self.k + p] > a.cap(p) + slack {
                    return false;
                }
            }
        }
        true
    }

    /// The gain (cut decrease) of moving `v` to `q` under the k-1 metric:
    /// read from the gain cache when built, else [`km1_gain`].
    pub fn gain(&self, v: usize, q: PartId) -> f64 {
        let h = self.h;
        let p = self.part[v];
        match &self.cache {
            Some(_) if p == q => 0.0,
            Some(cache) => cache.gain(self.k, v, p, q),
            None => km1_gain(&self.sigma, self.k, h.vertex_nets(v), |j| h.net_cost(j), p, q),
        }
    }

    /// The best feasible move for `v`: the highest-gain target part among
    /// the parts `v`'s nets already touch (ties → lighter part, then
    /// lower part id), subject to the weight cap. Reads the gain cache in
    /// O(k) when built, else runs [`km1_best_move`] with `scratch` as its
    /// stamped accumulator.
    pub fn best_move(
        &self,
        v: usize,
        targets: &PartTargets,
        scratch: &mut MoveScratch,
    ) -> Option<(PartId, f64)> {
        let p = self.part[v];
        if let Some(cache) = &self.cache {
            let row = &cache.terms[v * self.k..][..self.k];
            return select_best_move(
                self.k,
                p,
                self.h.vertex_weight(v),
                &self.weights,
                targets,
                |q| self.aux_fits(v, q, targets),
                |q| (row[q].conn > 0).then(|| cache.gain(self.k, v, p, q)),
            );
        }
        km1_best_move(
            &self.sigma,
            self.k,
            self.h.vertex_nets(v),
            |j| self.h.net_cost(j),
            p,
            self.h.vertex_weight(v),
            &self.weights,
            targets,
            |q| self.aux_fits(v, q, targets),
            scratch,
        )
    }

    /// Vertices on the cut boundary: incident to at least one net that
    /// touches more than one part.
    pub fn boundary_vertices(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.boundary_vertices_into(&mut out);
        out
    }

    /// [`Self::boundary_vertices`] into a caller-owned buffer (cleared
    /// first), so refinement passes can reuse the allocation. The
    /// expensive per-net part scan runs chunked over the nets; the cheap
    /// pin-marking pass stays serial, so the result is order-identical
    /// at every thread count.
    pub fn boundary_vertices_into(&self, out: &mut Vec<usize>) {
        // Cut-net flags straight into an arena-backed buffer: one write
        // per net, no per-chunk vectors (the buffer itself is reused
        // across passes on this thread).
        let mut cut_net = parallel::scratch_vec_filled::<bool>(self.h.num_nets(), false);
        parallel::fill_chunks(
            self.threads,
            self.h.num_nets(),
            parallel::DEFAULT_CHUNK,
            1,
            &mut cut_net,
            |_, range, window| {
                for j in range.clone() {
                    window[j - range.start] =
                        (0..self.k).filter(|&p| self.sigma(j, p) > 0).count() > 1;
                }
            },
        );
        let mut boundary = parallel::scratch_vec_filled::<bool>(self.h.num_vertices(), false);
        for (j, &is_cut) in cut_net.iter().enumerate() {
            if is_cut {
                for &v in self.h.net(j) {
                    boundary[v] = true;
                }
            }
        }
        out.clear();
        out.extend(
            boundary
                .iter()
                .enumerate()
                .filter_map(|(v, &b)| b.then_some(v)),
        );
    }

    /// Current k-1 cut computed from the maintained pin counts: per-chunk
    /// partial sums over the nets folded in chunk order (bit-identical at
    /// every thread count).
    pub fn cut(&self) -> f64 {
        parallel::sum_chunks(
            self.threads,
            self.h.num_nets(),
            parallel::DEFAULT_CHUNK,
            |range| {
                let mut cut = 0.0;
                for j in range {
                    let touched = (0..self.k).filter(|&p| self.sigma(j, p) > 0).count();
                    if touched > 1 {
                        cut += self.h.net_cost(j) * (touched - 1) as f64;
                    }
                }
                cut
            },
        )
    }
}

impl GainCache {
    /// The cached gain of moving `v` from its part `p` to `q ≠ p`.
    #[inline]
    fn gain(&self, k: usize, v: usize, p: PartId, q: PartId) -> f64 {
        let row = &self.terms[v * k..][..k];
        self.benefit[v] - (row[p].present - row[q].present)
    }

    /// The delta rules for net `j` after `v` moved from `p` to `q`
    /// (`part` already has `v` in `q`); `sp`/`sq` are the net's new pin
    /// counts in `p` and `q`.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn net_moved(
        &mut self,
        h: &Hypergraph,
        k: usize,
        part: &[PartId],
        j: usize,
        v: usize,
        (p, sp): (PartId, u32),
        (q, sq): (PartId, u32),
    ) {
        let c = h.net_cost(j);
        let pins = h.net(j);
        if sp == 0 {
            for &u in pins {
                let t = &mut self.terms[u * k + p];
                t.present -= c;
                t.conn -= 1;
            }
            self.pin_updates += pins.len() as u64;
        } else if sp == 1 {
            self.pin_updates += bump_benefit(&mut self.benefit, pins, |u| part[u] == p, c);
        }
        if sq == 1 {
            for &u in pins {
                let t = &mut self.terms[u * k + q];
                t.present += c;
                t.conn += 1;
            }
            self.pin_updates += pins.len() as u64;
        } else if sq == 2 {
            let other = |u: usize| u != v && part[u] == q;
            self.pin_updates += bump_benefit(&mut self.benefit, pins, other, -c);
        }
    }
}

/// Adds `delta` to the benefit of the first pin of `pins` that `is_it`
/// selects; returns the number of pins scanned.
#[inline]
fn bump_benefit(
    benefit: &mut [f64],
    pins: &[usize],
    is_it: impl Fn(usize) -> bool,
    delta: f64,
) -> u64 {
    for (i, &u) in pins.iter().enumerate() {
        if is_it(u) {
            benefit[u] += delta;
            return i as u64 + 1;
        }
    }
    pins.len() as u64
}

/// Reusable per-call scratch for [`km1_best_move`], shared by the
/// replicated and the distributed refiners.
pub struct MoveScratch {
    mark: Vec<u64>,
    present: Vec<f64>,
    stamp: u64,
}

impl MoveScratch {
    /// Scratch for `k` parts.
    pub fn new(k: usize) -> Self {
        MoveScratch {
            mark: vec![0; k],
            present: vec![0.0; k],
            stamp: 0,
        }
    }

    /// Grows the scratch to cover `k` parts (never shrinks; the stamp
    /// counter survives, so stale marks are ignored automatically).
    pub fn ensure(&mut self, k: usize) {
        if self.mark.len() < k {
            self.mark.resize(k, 0);
            self.present.resize(k, 0.0);
        }
    }
}

/// The k-1 gain of moving a vertex from part `p` to part `q`: the cut
/// decrease `Σ_{n ∋ v} c_n·([σ(n,p)=1] − [σ(n,q)=0])` over the vertex's
/// incident nets `nets`, read from the `k`-strided pin-count table
/// `sigma`. Shared by [`PartitionState`] and the distributed refiner,
/// which index nets differently but keep the same table layout.
#[inline]
pub(crate) fn km1_gain(
    sigma: &[u32],
    k: usize,
    nets: &[usize],
    cost: impl Fn(usize) -> f64,
    p: PartId,
    q: PartId,
) -> f64 {
    if p == q {
        return 0.0;
    }
    let mut g = 0.0;
    for &j in nets {
        let c = cost(j);
        if sigma[j * k + p] == 1 {
            g += c;
        }
        if sigma[j * k + q] == 0 {
            g -= c;
        }
    }
    g
}

/// The best feasible k-1 move of a vertex in part `p` with weight `w`
/// and incident nets `nets`: the highest-gain part among those the nets
/// already touch, skipping parts whose weight cap or `aux_fits`
/// predicate rejects the vertex ([`select_best_move`] has the tie rule).
/// One walk over the nets accumulates the leave term and, per candidate
/// part, the cost of the nets already present there.
#[allow(clippy::too_many_arguments)]
#[inline]
pub(crate) fn km1_best_move(
    sigma: &[u32],
    k: usize,
    nets: &[usize],
    cost: impl Fn(usize) -> f64,
    p: PartId,
    w: f64,
    weights: &[f64],
    targets: &PartTargets,
    aux_fits: impl Fn(PartId) -> bool,
    scratch: &mut MoveScratch,
) -> Option<(PartId, f64)> {
    scratch.stamp += 1;
    let stamp = scratch.stamp;

    let mut base = 0.0; // gain component from leaving p
    let mut total = 0.0;
    for &j in nets {
        let c = cost(j);
        total += c;
        if sigma[j * k + p] == 1 {
            base += c;
        }
        // Candidate targets: parts with pins on the vertex's nets.
        for q in 0..k {
            if q != p && sigma[j * k + q] > 0 {
                if scratch.mark[q] != stamp {
                    scratch.mark[q] = stamp;
                    scratch.present[q] = 0.0;
                }
                scratch.present[q] += c;
            }
        }
    }
    let scratch = &*scratch;
    select_best_move(k, p, w, weights, targets, aux_fits, |q| {
        (scratch.mark[q] == stamp).then(|| base - (total - scratch.present[q]))
    })
}

/// The move-selection rule shared by [`km1_best_move`] and the gain
/// cache: over the parts `q ≠ p` in ascending id for which `gain_to`
/// yields a gain (the candidates), skipping those whose weight cap or
/// `aux_fits` predicate rejects a vertex of weight `w`, the highest gain
/// wins; gains within 1e-12 go to the lighter part, then to the lower
/// part id.
#[inline]
fn select_best_move(
    k: usize,
    p: PartId,
    w: f64,
    weights: &[f64],
    targets: &PartTargets,
    aux_fits: impl Fn(PartId) -> bool,
    gain_to: impl Fn(PartId) -> Option<f64>,
) -> Option<(PartId, f64)> {
    let mut best: Option<(PartId, f64)> = None;
    for q in (0..k).filter(|&q| q != p) {
        let Some(gain) = gain_to(q) else { continue };
        if weights[q] + w > targets.cap(q) || !aux_fits(q) {
            continue;
        }
        match best {
            Some((bq, bg)) => {
                if gain > bg + 1e-12 || (gain > bg - 1e-12 && weights[q] < weights[bq]) {
                    best = Some((q, gain));
                }
            }
            None => best = Some((q, gain)),
        }
    }
    best
}

/// Allocation-reusing scratch for [`refine_threads`]: the move scratch,
/// the candidate heap, and the per-pass vertex flag arrays. One instance
/// serves every level of a multilevel V-cycle (and every bisection of a
/// recursive-bisection tree), so the per-pass `O(n)` allocations of the
/// original refiner are paid once per partitioner call instead of once
/// per pass.
pub struct RefineScratch {
    mv: MoveScratch,
    heap: BinaryHeap<Cand>,
    locked: Vec<bool>,
    queued: Vec<bool>,
    applied: Vec<(usize, PartId)>,
    boundary: Vec<usize>,
}

impl RefineScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        RefineScratch {
            mv: MoveScratch::new(0),
            heap: BinaryHeap::new(),
            locked: Vec::new(),
            queued: Vec::new(),
            applied: Vec::new(),
            boundary: Vec::new(),
        }
    }

    /// Prepares the scratch for one FM pass over `n` vertices and `k`
    /// parts: clears (retaining capacity) and resizes the flag arrays.
    fn prepare_pass(&mut self, k: usize, n: usize) {
        self.mv.ensure(k);
        self.heap.clear();
        self.locked.clear();
        self.locked.resize(n, false);
        self.queued.clear();
        self.queued.resize(n, false);
        self.applied.clear();
    }
}

impl Default for RefineScratch {
    fn default() -> Self {
        Self::new()
    }
}

struct Cand {
    gain: f64,
    v: usize,
    to: PartId,
}

impl PartialEq for Cand {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Cand {}
impl PartialOrd for Cand {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Cand {
    fn cmp(&self, other: &Self) -> Ordering {
        self.gain
            .total_cmp(&other.gain)
            .then_with(|| other.v.cmp(&self.v))
    }
}

/// Restores balance greedily: while a part exceeds its cap, move the
/// cheapest (highest-gain, i.e. least cut damage) movable vertex out of
/// the most-overweight part into the part with the most spare capacity.
///
/// Needed when projection or fixed-vertex constraints leave the coarse
/// partition overweight; plain FM cannot fix imbalance because it only
/// makes cap-respecting moves.
pub(crate) fn rebalance(
    state: &mut PartitionState,
    targets: &PartTargets,
    fixed: &FixedAssignment,
    scratch: &mut MoveScratch,
) {
    dlb_trace::count(dlb_trace::Counter::RebalanceInvocations, 1);
    let n = state.h.num_vertices();
    let max_moves = 2 * n + 16;
    let total_violation = |weights: &[f64]| -> f64 {
        weights
            .iter()
            .enumerate()
            .map(|(p, &w)| (w - targets.cap(p)).max(0.0))
            .sum()
    };
    for _ in 0..max_moves {
        let violation_before = total_violation(&state.weights);
        // Most-overweight part (relative to cap).
        let over = (0..state.k)
            .filter(|&p| state.weights[p] > targets.cap(p) + 1e-9)
            .max_by(|&a, &b| {
                (state.weights[a] - targets.cap(a)).total_cmp(&(state.weights[b] - targets.cap(b)))
            });
        let p = match over {
            Some(p) => p,
            None => return,
        };
        // Cheapest movable vertex in p: best gain to any part with spare
        // capacity; fall back to the relatively lightest part.
        let mut best: Option<(usize, PartId, f64)> = None;
        for v in 0..n {
            if state.part[v] != p || fixed.is_fixed(v) {
                continue;
            }
            let w = state.h.vertex_weight(v);
            let candidate = match state.best_move(v, targets, scratch) {
                Some((q, g)) => Some((q, g)),
                None => {
                    // No adjacent feasible part: move toward the part with
                    // the most spare relative capacity.
                    let q = (0..state.k)
                        .filter(|&q| q != p)
                        .min_by(|&a, &b| {
                            ((state.weights[a] + w) / targets.target[a].max(1e-12)).total_cmp(
                                &((state.weights[b] + w) / targets.target[b].max(1e-12)),
                            )
                        })
                        .unwrap();
                    Some((q, state.gain(v, q)))
                }
            };
            if let Some((q, g)) = candidate {
                if best.is_none_or(|(_, _, bg)| g > bg) {
                    best = Some((v, q, g));
                }
            }
        }
        match best {
            Some((v, q, _)) => {
                state.apply(v, q);
                // Keep only moves that strictly reduce total violation;
                // otherwise we are ping-ponging load between parts that
                // can never fit under their caps — stop.
                if total_violation(&state.weights) >= violation_before - 1e-12 {
                    state.apply(v, p);
                    return;
                }
            }
            None => return, // only fixed vertices left in p; nothing to do
        }
    }
}

/// Greedy rebalancing repair for multi-constraint feasibility (Maas et
/// al.): while any constraint of any part exceeds its cap, relocate one
/// vertex that carries load on a violated constraint out of its part —
/// choosing, over every such vertex and destination, the move that
/// minimizes the resulting global maximum relative violation (cut gain
/// breaks ties). When no single relocation helps, it falls back to
/// *swapping* a vertex of a most-violated part against one elsewhere —
/// the escape needed when the only parts with headroom on the violated
/// constraint are saturated on another. Every step must strictly shrink
/// the descending-sorted vector of all per-(constraint, part)
/// violations in lexicographic order, so the pass terminates and never
/// cycles. Returns the number of vertex moves applied (a swap counts
/// two).
///
/// This runs only when auxiliary constraints are present and plain FM
/// (whose moves all respect the caps) cannot restore feasibility; the
/// scalar pipeline never reaches it.
pub(crate) fn greedy_repair(
    state: &mut PartitionState,
    targets: &PartTargets,
    fixed: &FixedAssignment,
) -> usize {
    dlb_trace::count(dlb_trace::Counter::RepairInvocations, 1);
    let n = state.h.num_vertices();
    let k = state.k;
    let arity = targets.arity();
    assert!(
        arity <= state.h.load_arity(),
        "balance targets reference more constraints than the hypergraph carries"
    );
    let cap = |c: usize, p: usize| -> f64 {
        if c == 0 {
            targets.cap(p)
        } else {
            targets.aux_cap(c, p)
        }
    };
    let load_of = |state: &PartitionState, c: usize, p: usize| -> f64 {
        if c == 0 {
            state.weights[p]
        } else {
            state.aux_weight(c, p)
        }
    };
    // Largest relative overshoot over all (constraint, part) pairs, with
    // its argmax. Zero-capacity parts count as violated when loaded.
    let max_violation = |state: &PartitionState| -> (f64, usize, usize) {
        let mut best = (0.0, 0, 0);
        for c in 0..arity {
            for p in 0..k {
                let cp = cap(c, p);
                let w = load_of(state, c, p);
                let over = if cp > 0.0 {
                    w / cp - 1.0
                } else if w > 0.0 {
                    f64::INFINITY
                } else {
                    0.0
                };
                if over > best.0 {
                    best = (over, c, p);
                }
            }
        }
        best
    };
    let over_of = |w: f64, cp: f64| -> f64 {
        if cp > 0.0 {
            w / cp - 1.0
        } else if w > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    };
    // Lexicographic progress test. The pass's well-founded measure is the
    // descending-sorted vector of all `arity * k` relative violations; a
    // step is kept only if it makes that vector strictly smaller, which
    // both drives the maximum down *and* lets the pass chip away at
    // secondary violations when the maximum is momentarily immovable
    // (merging the identical untouched entries into two sorted sequences
    // preserves their order, so the comparison reduces to the touched
    // entries alone). Strictly decreasing measure: no cycles.
    fn lex_improves(old_t: &mut [f64], new_t: &mut [f64]) -> bool {
        old_t.sort_by(|x, y| y.partial_cmp(x).unwrap());
        new_t.sort_by(|x, y| y.partial_cmp(x).unwrap());
        for (o, nw) in old_t.iter().zip(new_t.iter()) {
            if *nw < *o - 1e-12 {
                return true;
            }
            if *nw > *o + 1e-12 {
                return false;
            }
        }
        false
    }
    let mut old_t = vec![0.0f64; 2 * arity];
    let mut new_t = vec![0.0f64; 2 * arity];
    let mut moves = 0usize;
    let max_moves = 2 * n + 16;
    while moves < max_moves {
        let (viol, _, _) = max_violation(state);
        if viol <= 1e-9 {
            break; // feasible on every constraint
        }
        // Violation matrix and, per constraint, the top-three violations
        // with their parts: a step only touches two parts, so the
        // resulting global maximum is O(arity) to evaluate from these.
        let over: Vec<Vec<f64>> = (0..arity)
            .map(|c| (0..k).map(|p| over_of(load_of(state, c, p), cap(c, p))).collect())
            .collect();
        let mut top3 = vec![[(f64::NEG_INFINITY, usize::MAX); 3]; arity];
        for (c, top) in top3.iter_mut().enumerate() {
            for (p, &o) in over[c].iter().enumerate() {
                if o > top[0].0 {
                    top[2] = top[1];
                    top[1] = top[0];
                    top[0] = (o, p);
                } else if o > top[1].0 {
                    top[2] = top[1];
                    top[1] = (o, p);
                } else if o > top[2].0 {
                    top[2] = (o, p);
                }
            }
        }
        let others_max = |c: usize, a: usize, q: usize| -> f64 {
            for &(o, p) in &top3[c] {
                if p != a && p != q {
                    return o;
                }
            }
            f64::NEG_INFINITY
        };
        // Anchor parts: every part violated on some constraint. A vertex
        // is a relocation candidate if it carries load on one of its
        // part's violated constraints.
        let violated: Vec<Vec<usize>> = (0..k)
            .map(|p| (0..arity).filter(|&c| over[c][p] > 1e-9).collect())
            .collect();
        // Over every movable vertex of a violated part and every
        // destination, the relocation that minimizes the resulting
        // global maximum violation, among those making lexicographic
        // progress; among equals, the one whose touched parts end
        // lowest, then the best cut gain.
        let mut best: Option<(usize, PartId, f64, f64, f64)> = None;
        for v in 0..n {
            let a = state.part[v];
            if violated[a].is_empty() || fixed.is_fixed(v) {
                continue;
            }
            if !violated[a].iter().any(|&c| state.h.vertex_load(v, c) > 0.0) {
                continue;
            }
            for q in 0..k {
                if q == a {
                    continue;
                }
                let mut after = 0.0f64;
                let mut touched = f64::NEG_INFINITY;
                for c in 0..arity {
                    let lv = state.h.vertex_load(v, c);
                    let from = over_of(load_of(state, c, a) - lv, cap(c, a));
                    let to = over_of(load_of(state, c, q) + lv, cap(c, q));
                    old_t[2 * c] = over[c][a];
                    old_t[2 * c + 1] = over[c][q];
                    new_t[2 * c] = from;
                    new_t[2 * c + 1] = to;
                    after = after.max(from).max(to).max(others_max(c, a, q));
                    touched = touched.max(from).max(to);
                }
                if !lex_improves(&mut old_t, &mut new_t) {
                    continue;
                }
                let g = state.gain(v, q);
                let better = match best {
                    None => true,
                    Some((_, _, ba, bt, bg)) => {
                        after < ba - 1e-12
                            || (after < ba + 1e-12
                                && (touched < bt - 1e-12
                                    || (touched < bt + 1e-12 && g > bg + 1e-12)))
                    }
                };
                if better {
                    best = Some((v, q, after, touched, g));
                }
            }
        }
        if let Some((v, q, _, _, _)) = best {
            state.apply(v, q);
            moves += 1;
            continue;
        }
        // No relocation makes progress — typically the remaining slack
        // sits on parts that are themselves at a cap on another
        // constraint (e.g. byte headroom only on flop-saturated parts).
        // A *swap* trades a vertex of an overloaded part against one
        // elsewhere, changing both parts' loads by the difference; swaps
        // anchor at each constraint's most-violated part.
        let mut anchors: Vec<usize> = (0..arity)
            .filter(|&c| top3[c][0].0 > 1e-9)
            .map(|c| top3[c][0].1)
            .collect();
        anchors.sort_unstable();
        anchors.dedup();
        let mut best_swap: Option<(usize, usize, f64, f64, f64)> = None;
        for &a in &anchors {
            for v in 0..n {
                if state.part[v] != a || fixed.is_fixed(v) {
                    continue;
                }
                if !violated[a].iter().any(|&c| state.h.vertex_load(v, c) > 0.0) {
                    continue;
                }
                for u in 0..n {
                    let q = state.part[u];
                    if q == a || fixed.is_fixed(u) {
                        continue;
                    }
                    let mut after = 0.0f64;
                    let mut touched = f64::NEG_INFINITY;
                    for c in 0..arity {
                        let d = state.h.vertex_load(v, c) - state.h.vertex_load(u, c);
                        let from = over_of(load_of(state, c, a) - d, cap(c, a));
                        let to = over_of(load_of(state, c, q) + d, cap(c, q));
                        old_t[2 * c] = over[c][a];
                        old_t[2 * c + 1] = over[c][q];
                        new_t[2 * c] = from;
                        new_t[2 * c + 1] = to;
                        after = after.max(from).max(to).max(others_max(c, a, q));
                        touched = touched.max(from).max(to);
                    }
                    if !lex_improves(&mut old_t, &mut new_t) {
                        continue;
                    }
                    let g = state.gain(v, q) + state.gain(u, a);
                    let better = match best_swap {
                        None => true,
                        Some((_, _, ba, bt, bg)) => {
                            after < ba - 1e-12
                                || (after < ba + 1e-12
                                    && (touched < bt - 1e-12
                                        || (touched < bt + 1e-12 && g > bg + 1e-12)))
                        }
                    };
                    if better {
                        best_swap = Some((v, u, after, touched, g));
                    }
                }
            }
        }
        let (v, u, _, _, _) = match best_swap {
            Some(s) => s,
            None => break, // no step makes progress — stop, stay deterministic
        };
        let a = state.part[v];
        let q = state.part[u];
        state.apply(v, q);
        state.apply(u, a);
        moves += 2;
    }
    dlb_trace::count(dlb_trace::Counter::RepairMovesApplied, moves as u64);
    moves
}

/// One FM pass with rollback. Returns the cut improvement kept.
fn fm_pass(
    state: &mut PartitionState,
    targets: &PartTargets,
    fixed: &FixedAssignment,
    cfg: &RefinementConfig,
    scratch: &mut RefineScratch,
    rng: &mut StdRng,
) -> f64 {
    let n = state.h.num_vertices();
    // At most one live heap entry per vertex: pops revalidate gains, so
    // extra pushes only add churn. `queued` dedupes; it is cleared on pop
    // so later gain changes can re-queue the vertex.
    scratch.prepare_pass(state.k, n);

    let mut boundary = std::mem::take(&mut scratch.boundary);
    state.boundary_vertices_into(&mut boundary);
    boundary.shuffle(rng);
    // Seeds are O(k) cache reads, pushed in boundary order.
    for &v in &boundary {
        if fixed.is_fixed(v) {
            continue;
        }
        if let Some((to, gain)) = state.best_move(v, targets, &mut scratch.mv) {
            scratch.heap.push(Cand { gain, v, to });
            scratch.queued[v] = true;
        }
    }
    scratch.boundary = boundary;

    let mut cum = 0.0;
    let mut best_cum = 0.0;
    let mut best_len = 0usize;
    let mut neg_streak = 0usize;

    while let Some(c) = scratch.heap.pop() {
        scratch.queued[c.v] = false;
        if scratch.locked[c.v] || fixed.is_fixed(c.v) {
            continue;
        }
        // Lazy revalidation: the stored move may be stale.
        let current = state.best_move(c.v, targets, &mut scratch.mv);
        match current {
            None => continue,
            Some((to, gain)) => {
                if to != c.to || (gain - c.gain).abs() > 1e-9 {
                    scratch.heap.push(Cand { gain, v: c.v, to });
                    scratch.queued[c.v] = true;
                    continue;
                }
                let from = state.part[c.v];
                state.apply(c.v, to);
                scratch.locked[c.v] = true;
                scratch.applied.push((c.v, from));
                cum += gain;
                if cum > best_cum + 1e-12 {
                    best_cum = cum;
                    best_len = scratch.applied.len();
                    neg_streak = 0;
                } else {
                    neg_streak += 1;
                    if cfg.max_negative_streak > 0 && neg_streak >= cfg.max_negative_streak {
                        break;
                    }
                }
                // Re-queue neighbors whose gains changed (deduped).
                for &j in state.h.vertex_nets(c.v) {
                    if state.h.net_size(j) > MAX_NET_SIZE_FOR_UPDATES {
                        continue;
                    }
                    for &w in state.h.net(j) {
                        if !scratch.locked[w] && !scratch.queued[w] && !fixed.is_fixed(w) {
                            if let Some((to, gain)) = state.best_move(w, targets, &mut scratch.mv) {
                                scratch.heap.push(Cand { gain, v: w, to });
                                scratch.queued[w] = true;
                            }
                        }
                    }
                }
            }
        }
    }

    // Roll back past the best prefix.
    for &(v, from) in scratch.applied[best_len..].iter().rev() {
        state.apply(v, from);
    }

    let attempted = scratch.applied.len() as u64;
    dlb_trace::count(dlb_trace::Counter::FmPasses, 1);
    dlb_trace::count(dlb_trace::Counter::FmMovesAttempted, attempted);
    dlb_trace::count(dlb_trace::Counter::FmMovesAccepted, best_len as u64);
    dlb_trace::count(
        dlb_trace::Counter::FmMovesRolledBack,
        attempted - best_len as u64,
    );
    dlb_trace::count(dlb_trace::Counter::FmCachePinUpdates, state.take_cache_pin_updates());
    best_cum
}

/// Refines `part` in place: first restores balance if violated, then runs
/// FM passes until no pass improves the cut (or `cfg.max_passes`).
/// Returns the total cut improvement from the FM passes.
pub fn refine(
    h: &Hypergraph,
    targets: &PartTargets,
    fixed: &FixedAssignment,
    part: &mut Vec<PartId>,
    cfg: &RefinementConfig,
    rng: &mut StdRng,
) -> f64 {
    let mut scratch = RefineScratch::new();
    refine_threads(h, targets, fixed, part, cfg, rng, 1, &mut scratch)
}

/// [`refine`] with an explicit worker-thread count (state and gain-cache
/// builds, boundary/cut scans) and a caller-owned [`RefineScratch`]
/// reused across calls. Bit-identical to [`refine`] at every thread
/// count: the FM move loop itself is serial; only the builds and the
/// whole-partition scans are chunked.
#[allow(clippy::too_many_arguments)]
pub fn refine_threads(
    h: &Hypergraph,
    targets: &PartTargets,
    fixed: &FixedAssignment,
    part: &mut Vec<PartId>,
    cfg: &RefinementConfig,
    rng: &mut StdRng,
    threads: usize,
    scratch: &mut RefineScratch,
) -> f64 {
    let k = targets.k();
    if k < 2 || h.num_vertices() == 0 {
        return 0.0;
    }
    let multi = !targets.aux.is_empty();
    if multi {
        assert!(
            targets.arity() <= h.load_arity(),
            "balance targets reference more constraints than the hypergraph carries"
        );
    }
    let mut state = PartitionState::new_threads(h, k, std::mem::take(part), threads);
    state.build_gain_cache();
    scratch.mv.ensure(k);

    rebalance(&mut state, targets, fixed, &mut scratch.mv);
    // Primary-only rebalancing cannot see auxiliary violations; repair
    // them before FM so the pass starts from a feasible assignment.
    if multi && !state.feasible(targets) {
        greedy_repair(&mut state, targets, fixed);
    }

    let mut total = 0.0;
    for _ in 0..cfg.max_passes {
        let improvement = fm_pass(&mut state, targets, fixed, cfg, scratch, rng);
        total += improvement;
        if improvement <= 1e-12 {
            break;
        }
    }
    // FM only makes cap-respecting moves, so it preserves feasibility —
    // but if repair could not finish above, try once more now that FM
    // has untangled the cut, and let one extra pass recover cut quality.
    if multi && !state.feasible(targets) && greedy_repair(&mut state, targets, fixed) > 0 {
        total += fm_pass(&mut state, targets, fixed, cfg, scratch, rng);
    }
    *part = state.part;
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_hypergraph::metrics;
    use rand::{Rng, SeedableRng};

    fn uniform_targets(h: &Hypergraph, k: usize) -> PartTargets {
        PartTargets::uniform(h.total_vertex_weight(), k, 0.05)
    }

    #[test]
    fn state_tracks_cut_incrementally() {
        let h = crate::tests::grid_hypergraph(4, 4);
        let part: Vec<usize> = (0..16).map(|v| v % 2).collect();
        let mut state = PartitionState::new(&h, 2, part.clone());
        assert_eq!(state.cut(), metrics::cutsize_connectivity(&h, &part, 2));
        state.apply(3, 0);
        let mut moved = part;
        moved[3] = 0;
        assert_eq!(state.cut(), metrics::cutsize_connectivity(&h, &moved, 2));
    }

    #[test]
    fn gain_matches_recomputed_cut_delta() {
        let h = crate::tests::random_hypergraph(30, 60, 5, 11);
        let part: Vec<usize> = (0..30).map(|v| v % 3).collect();
        let mut state = PartitionState::new(&h, 3, part);
        for v in [0usize, 7, 13, 29] {
            for q in 0..3 {
                if q == state.part[v] {
                    continue;
                }
                let before = state.cut();
                let gain = state.gain(v, q);
                let from = state.part[v];
                state.apply(v, q);
                let after = state.cut();
                assert!(
                    (before - after - gain).abs() < 1e-9,
                    "v={v} q={q}: predicted {gain}, actual {}",
                    before - after
                );
                state.apply(v, from);
            }
        }
    }

    /// Asserts that the maintained gain cache equals a fresh build bit
    /// for bit, and that every cached gain and best move equals the
    /// fresh kernels' on the same pin counts and part weights.
    fn assert_cache_exact(state: &PartitionState, targets: &PartTargets, mv: &mut MoveScratch) {
        let (h, k) = (state.h, state.k);
        let bits = |c: &GainCache| -> (Vec<u64>, Vec<(u64, u32)>) {
            (
                c.benefit.iter().map(|b| b.to_bits()).collect(),
                c.terms.iter().map(|t| (t.present.to_bits(), t.conn)).collect(),
            )
        };
        let mut rebuilt = PartitionState::new(h, k, state.part.clone());
        rebuilt.build_gain_cache();
        let maintained = state.cache.as_ref().expect("cache built");
        assert_eq!(bits(maintained), bits(rebuilt.cache.as_ref().unwrap()));
        for v in 0..h.num_vertices() {
            let (p, nets, cost) = (state.part[v], h.vertex_nets(v), |j| h.net_cost(j));
            let fresh = km1_best_move(
                &state.sigma,
                k,
                nets,
                cost,
                p,
                h.vertex_weight(v),
                &state.weights,
                targets,
                |q| state.aux_fits(v, q, targets),
                mv,
            );
            let as_bits = |m: Option<(PartId, f64)>| m.map(|(q, g)| (q, g.to_bits()));
            assert_eq!(as_bits(state.best_move(v, targets, mv)), as_bits(fresh), "best_move({v})");
            for q in 0..k {
                let fresh = km1_gain(&state.sigma, k, nets, cost, p, q);
                assert_eq!(state.gain(v, q).to_bits(), fresh.to_bits(), "gain({v}, {q})");
            }
        }
    }

    #[test]
    fn gain_cache_stays_exact_under_moves_and_rollback() {
        for k in [2usize, 3, 8] {
            let n = 60;
            let h = crate::tests::random_hypergraph(n, 120, 9, 17 + k as u64);
            let t = uniform_targets(&h, k);
            let mut fixed = FixedAssignment::free(n);
            let part: Vec<usize> = (0..n).map(|v| (v * 5 + v / 7) % k).collect();
            for v in (0..n).step_by(7) {
                fixed.fix(v, part[v]);
            }
            let mut state = PartitionState::new(&h, k, part);
            state.build_gain_cache();
            let mut mv = MoveScratch::new(k);
            assert_cache_exact(&state, &t, &mut mv);
            let mut rng = StdRng::seed_from_u64(k as u64);
            let mut applied = Vec::new();
            while applied.len() < 40 {
                let v = rng.gen_range(0..n);
                let q = rng.gen_range(0..k);
                if fixed.is_fixed(v) || q == state.part[v] {
                    continue;
                }
                applied.push((v, state.part[v]));
                state.apply(v, q);
                assert_cache_exact(&state, &t, &mut mv);
            }
            for &(v, from) in applied.iter().rev() {
                state.apply(v, from);
                assert_cache_exact(&state, &t, &mut mv);
            }
            assert!(state.take_cache_pin_updates() > 0);
        }
    }

    #[test]
    fn cached_fm_makes_the_fresh_kernels_moves() {
        for k in [2usize, 3, 8] {
            let n = 200;
            let h = crate::tests::random_hypergraph(n, 400, 6, k as u64);
            let t = uniform_targets(&h, k);
            let mut fixed = FixedAssignment::free(n);
            for v in (0..n).step_by(11) {
                fixed.fix(v, v % k);
            }
            let part: Vec<usize> = (0..n).map(|v| fixed.get(v).unwrap_or(v * 7 % k)).collect();
            let run = |cached: bool| {
                let mut state = PartitionState::new(&h, k, part.clone());
                if cached {
                    state.build_gain_cache();
                }
                let mut scratch = RefineScratch::new();
                scratch.mv.ensure(k);
                let mut rng = StdRng::seed_from_u64(9);
                rebalance(&mut state, &t, &fixed, &mut scratch.mv);
                let cfg = RefinementConfig::default();
                let mut pass = || fm_pass(&mut state, &t, &fixed, &cfg, &mut scratch, &mut rng);
                let gains: Vec<u64> = (0..3).map(|_| pass().to_bits()).collect();
                (state.part, gains)
            };
            assert_eq!(run(true), run(false), "k={k}");
        }
    }

    #[test]
    fn best_move_ties_go_to_the_lighter_then_the_lower_part() {
        // Vertex 0 sits alone in part 0 with one unit net to each of
        // parts 1, 2 and 3 (listed in descending part order): every move
        // uncuts exactly one net, so weights and then part ids decide.
        let h = Hypergraph::from_nets(4, &[vec![0, 3], vec![0, 2], vec![0, 1]], vec![1.0; 3]);
        let t = PartTargets::uniform(4.0, 4, 2.0);
        let mut mv = MoveScratch::new(4);
        for cached in [false, true] {
            let mut state = PartitionState::new(&h, 4, vec![0, 1, 2, 3]);
            if cached {
                state.build_gain_cache();
            }
            assert_eq!(state.best_move(0, &t, &mut mv), Some((1, 1.0)));
            state.weights[1] += 0.5;
            assert_eq!(state.best_move(0, &t, &mut mv), Some((2, 1.0)));
        }
    }

    #[test]
    fn refine_improves_a_bad_partition() {
        let h = crate::tests::grid_hypergraph(8, 8);
        // Stripes by column parity: terrible cut.
        let mut part: Vec<usize> = (0..64).map(|v| v % 2).collect();
        let before = metrics::cutsize_connectivity(&h, &part, 2);
        let t = uniform_targets(&h, 2);
        let fixed = FixedAssignment::free(64);
        let mut rng = StdRng::seed_from_u64(0);
        let gain = refine(&h, &t, &fixed, &mut part, &RefinementConfig::default(), &mut rng);
        let after = metrics::cutsize_connectivity(&h, &part, 2);
        assert!((before - after - gain).abs() < 1e-9);
        assert!(after < before / 2.0, "cut {before} -> {after}");
        assert!(metrics::imbalance(&h, &part, 2) <= 1.05 + 1e-9);
    }

    #[test]
    fn refine_never_moves_fixed_vertices() {
        let h = crate::tests::grid_hypergraph(8, 8);
        let mut part: Vec<usize> = (0..64).map(|v| v % 2).collect();
        let mut fixed = FixedAssignment::free(64);
        for v in (0..64).step_by(7) {
            fixed.fix(v, part[v]);
        }
        let t = uniform_targets(&h, 2);
        let mut rng = StdRng::seed_from_u64(1);
        refine(&h, &t, &fixed, &mut part, &RefinementConfig::default(), &mut rng);
        for v in (0..64).step_by(7) {
            assert_eq!(part[v], v % 2, "fixed vertex {v} moved");
        }
    }

    #[test]
    fn refine_respects_caps() {
        let h = crate::tests::random_hypergraph(80, 160, 4, 5);
        let mut part: Vec<usize> = (0..80).map(|v| v % 4).collect();
        let t = uniform_targets(&h, 4);
        let fixed = FixedAssignment::free(80);
        let mut rng = StdRng::seed_from_u64(2);
        refine(&h, &t, &fixed, &mut part, &RefinementConfig::default(), &mut rng);
        let w = metrics::part_weights(&h, &part, 4);
        for p in 0..4 {
            assert!(w[p] <= t.cap(p) + 1e-9, "part {p} weight {} > cap {}", w[p], t.cap(p));
        }
    }

    #[test]
    fn rebalance_fixes_gross_imbalance() {
        let h = crate::tests::grid_hypergraph(8, 8);
        // Everything in part 0.
        let mut part = vec![0usize; 64];
        let t = uniform_targets(&h, 2);
        let fixed = FixedAssignment::free(64);
        let mut rng = StdRng::seed_from_u64(3);
        refine(&h, &t, &fixed, &mut part, &RefinementConfig::default(), &mut rng);
        let imb = metrics::imbalance(&h, &part, 2);
        assert!(imb <= 1.05 + 1e-9, "imbalance {imb} after rebalance+refine");
    }

    #[test]
    fn boundary_detection() {
        let h = crate::tests::grid_hypergraph(4, 4);
        // Left half vs right half: boundary is columns 1 and 2.
        let part: Vec<usize> = (0..16).map(|v| if v % 4 < 2 { 0 } else { 1 }).collect();
        let state = PartitionState::new(&h, 2, part);
        let boundary = state.boundary_vertices();
        let expected: Vec<usize> = (0..16).filter(|v| v % 4 == 1 || v % 4 == 2).collect();
        assert_eq!(boundary, expected);
    }

    #[test]
    fn refine_with_all_fixed_is_a_noop() {
        let h = crate::tests::grid_hypergraph(4, 4);
        let orig: Vec<usize> = (0..16).map(|v| v % 2).collect();
        let mut part = orig.clone();
        let opts: Vec<Option<usize>> = orig.iter().map(|&p| Some(p)).collect();
        let fixed = FixedAssignment::from_options(&opts);
        let t = uniform_targets(&h, 2);
        let mut rng = StdRng::seed_from_u64(4);
        let gain = refine(&h, &t, &fixed, &mut part, &RefinementConfig::default(), &mut rng);
        assert_eq!(part, orig);
        assert_eq!(gain, 0.0);
    }

    #[test]
    fn k_one_is_noop() {
        let h = crate::tests::grid_hypergraph(3, 3);
        let mut part = vec![0usize; 9];
        let t = uniform_targets(&h, 1);
        let fixed = FixedAssignment::free(9);
        let mut rng = StdRng::seed_from_u64(5);
        assert_eq!(refine(&h, &t, &fixed, &mut part, &RefinementConfig::default(), &mut rng), 0.0);
    }
}
