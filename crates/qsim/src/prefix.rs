//! Prefix-sharing branch-tree shot engine.
//!
//! The per-shot executor re-evolves the statevector from `|0..0>` for every
//! shot, even though a (noise-eligible) dynamic circuit's evolution is fully
//! deterministic *between* stochastic events. This module evolves the state
//! **once** up to each stochastic branch point — a mid-circuit measurement,
//! a reset outcome, a readout-flip or reset-error draw — and forks the
//! amplitude branches into a binary decision tree. Each shot then *walks*
//! the tree on its own counter-derived RNG stream instead of re-running the
//! circuit, which turns the per-shot cost from "evolve the whole circuit"
//! into "a handful of `gen_bool` draws".
//!
//! # Determinism argument
//!
//! The per-shot executor's only RNG consumption on a tree-eligible run is a
//! fixed sequence of [`rand::Rng::gen_bool`] calls in instruction order:
//! one per measurement (against [`StateVector::measure_prob_one`]), one per
//! reset, plus one per measurement/reset when `readout_flip` /
//! `reset_error` is positive. `gen_bool(p)` consumes exactly one `next_u64`
//! regardless of `p`, so the *alignment* of draws is independent of the
//! probabilities. The tree stores, at every decision node, the same `p` the
//! per-shot path would compute at that point, and each shot walks the tree
//! calling `rng.gen_bool(node.p)` on a fresh
//! `StdRng::seed_from_u64(stream_seed(base, shot))`. Every draw therefore
//! sees the same RNG state and the same probability as the per-shot
//! executor, making the outcome sequence — and hence counts, memory rows
//! and tally counters — bit-identical by construction.
//!
//! Segments between branch points are evolved gate by gate with the same
//! [`StateVector::apply_gate`], [`StateVector::measure_prob_one`] and
//! [`StateVector::project`] calls, in the same order, as the per-shot
//! loop, so every node probability is the per-shot probability bit for
//! bit.
//!
//! Built under ideal noise and without the node budget, the same tree is
//! the exact enumeration of a circuit's outcomes:
//! [`crate::branch::exact_distribution`] is its leaf distribution.
//!
//! # Fallbacks
//!
//! Tree execution preserves per-shot semantics exactly or not at all:
//!
//! * **whole-run fallback** — the caller (see [`crate::Executor`]) keeps
//!   the per-shot path whenever a tracer, a [`crate::FaultHook`], gate/idle
//!   noise, a drift policy or a `max_failed` budget is installed, and
//!   whenever tree construction aborts (a non-finite branch probability,
//!   the node budget exceeded, or an interruption poll fired). Deadlines
//!   and [`crate::CancelToken`]s do *not* force the fallback: the tree
//!   build and the shot walk poll them cooperatively and an uninterrupted
//!   run stays bit-identical to the per-shot engine;
//! * **per-shot replay** — a walk that reaches a pruned branch (edge
//!   probability below [`BRANCH_EPS`]) re-runs *that shot* from scratch on
//!   a fresh per-shot RNG, which is bit-identical by definition.

use crate::counts::Distribution;
use crate::executor::RunTally;
use crate::noise::NoiseModel;
use crate::statevector::StateVector;
use qcir::{Circuit, OpKind};
use rand::Rng;

/// Edge probability below which a branch is not expanded: walks that land
/// on it replay their shot on the per-shot path instead, and
/// [`crate::branch::exact_distribution`] drops it. Leaf weights of an
/// unpruned tree sum to 1 within this epsilon.
pub const BRANCH_EPS: f64 = 1e-12;

/// Node budget (decision nodes + leaves). A circuit whose branch tree blows
/// past this — `k` independent fair measurements cost `2^k` leaves — is not
/// worth enumerating; the caller falls back to the per-shot loop.
pub const MAX_TREE_NODES: usize = 1 << 15;

/// Where a decision-node edge leads.
#[derive(Debug, Clone, Copy)]
enum NodeRef {
    /// Another `gen_bool` decision.
    Draw(u32),
    /// A fully resolved shot outcome.
    Leaf(u32),
    /// A pruned or impossible branch: replay the shot per-shot.
    Bail,
}

/// One `gen_bool(p)` event of the per-shot draw sequence.
#[derive(Debug)]
struct DrawNode {
    p: f64,
    on_false: NodeRef,
    on_true: NodeRef,
}

/// A fully resolved outcome: the classical register plus the tally delta
/// one shot landing here contributes.
#[derive(Debug)]
struct Leaf {
    classical: Vec<bool>,
    weight: f64,
    tally: RunTally,
}

/// What one shot's tree walk resolved to.
pub enum Walk {
    /// The shot landed on leaf `i` (index into the leaf table).
    Leaf(u32),
    /// The shot reached a pruned branch and must be replayed per-shot.
    Replay,
}

/// The branch tree of one circuit under one noise model.
#[derive(Debug)]
pub struct PrefixTree {
    nodes: Vec<DrawNode>,
    leaves: Vec<Leaf>,
    root: NodeRef,
    pruned: u64,
}

/// Whether `noise` keeps a run tree-eligible: gate and idle channels draw
/// *inside* the state evolution (per trajectory), which the shared-prefix
/// evolution cannot replicate, while `readout_flip` / `reset_error` are
/// plain `gen_bool` events the tree models as decision nodes. Out-of-range
/// probabilities are left to the per-shot path so they panic exactly as
/// they always did.
pub fn noise_is_tree_compatible(noise: &NoiseModel) -> bool {
    noise.gate_1q.is_none()
        && noise.gate_2q.is_none()
        && noise.idle.is_none()
        && (0.0..=1.0).contains(&noise.readout_flip)
        && (0.0..=1.0).contains(&noise.reset_error)
}

impl PrefixTree {
    /// Builds the branch tree for `circuit`, or `None` when construction
    /// aborts (non-finite branch probability, node budget exceeded) and the
    /// caller must keep the per-shot path.
    pub fn build(circuit: &Circuit, noise: &NoiseModel) -> Option<PrefixTree> {
        Self::build_polled(circuit, noise, || false)
    }

    /// [`PrefixTree::build`] with a cooperative interruption poll, consulted
    /// once per stochastic branch node. When `poll` returns `true` the
    /// build aborts and returns `None`; the caller falls back to the
    /// per-shot loop, whose own budget checks then terminate the run
    /// immediately. This is how a cancelled or already-deadline-expired job
    /// avoids paying for a tree it will never walk.
    pub fn build_polled(
        circuit: &Circuit,
        noise: &NoiseModel,
        poll: impl FnMut() -> bool,
    ) -> Option<PrefixTree> {
        Self::grow(circuit, noise, MAX_TREE_NODES, poll)
    }

    /// Builds the tree with at most `max_nodes` nodes: the engine passes
    /// [`MAX_TREE_NODES`], the exact enumeration `usize::MAX`.
    pub(crate) fn grow(
        circuit: &Circuit,
        noise: &NoiseModel,
        max_nodes: usize,
        mut poll: impl FnMut() -> bool,
    ) -> Option<PrefixTree> {
        let mut builder = Builder {
            circuit,
            noise,
            mid: crate::executor::mid_measure_flags(circuit),
            nodes: Vec::new(),
            leaves: Vec::new(),
            pruned: 0,
            max_nodes,
            poll: &mut poll,
        };
        let state = StateVector::zero_state(circuit.num_qubits());
        let classical = vec![false; circuit.num_clbits()];
        let root = builder
            .explore(0, state, classical, 1.0, RunTally::default())
            .ok()?;
        Some(PrefixTree {
            nodes: builder.nodes,
            leaves: builder.leaves,
            root,
            pruned: builder.pruned,
        })
    }

    /// Walks the tree with one shot's RNG, consuming exactly the draws the
    /// per-shot executor would.
    pub fn walk<R: Rng + ?Sized>(&self, rng: &mut R) -> Walk {
        let mut cur = self.root;
        loop {
            match cur {
                NodeRef::Leaf(i) => return Walk::Leaf(i),
                NodeRef::Bail => return Walk::Replay,
                NodeRef::Draw(i) => {
                    let node = &self.nodes[i as usize];
                    cur = if rng.gen_bool(node.p) {
                        node.on_true
                    } else {
                        node.on_false
                    };
                }
            }
        }
    }

    /// The classical register of leaf `i`.
    pub fn leaf_classical(&self, i: u32) -> &[bool] {
        &self.leaves[i as usize].classical
    }

    /// Adds `hits[i]` copies of each leaf's tally delta into `tally` —
    /// exact integer accounting, identical to summing the per-shot tallies
    /// of the shots that landed on each leaf.
    pub(crate) fn accumulate_tally(&self, hits: &[u64], tally: &mut RunTally) {
        for (leaf, &n) in self.leaves.iter().zip(hits) {
            if n > 0 {
                tally.absorb_scaled(&leaf.tally, n);
            }
        }
    }

    /// Decision-node count.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Leaf count.
    pub fn num_leaves(&self) -> usize {
        self.leaves.len()
    }

    /// Branches pruned below [`BRANCH_EPS`] (each one a potential replay).
    pub fn num_pruned(&self) -> u64 {
        self.pruned
    }

    /// The leaf weight distribution keyed by classical bitstring: each
    /// weight is the product of the probabilities along its path. With no
    /// pruning the weights sum to 1 within [`BRANCH_EPS`].
    pub fn leaf_distribution(&self) -> Distribution {
        let mut dist = Distribution::new();
        for leaf in &self.leaves {
            dist.add(crate::counts::bitstring(&leaf.classical), leaf.weight);
        }
        dist
    }
}

/// Tree-construction failure: fall back to the per-shot path for the whole
/// run. Carries no detail — every cause has the same remedy.
struct Abort;

struct Builder<'a> {
    circuit: &'a Circuit,
    noise: &'a NoiseModel,
    mid: Vec<bool>,
    nodes: Vec<DrawNode>,
    leaves: Vec<Leaf>,
    pruned: u64,
    /// Node budget (decision nodes + leaves); exceeding it aborts.
    max_nodes: usize,
    /// Cooperative interruption check, consulted once per stochastic
    /// branch node; `true` aborts the build (see
    /// [`PrefixTree::build_polled`]).
    poll: &'a mut dyn FnMut() -> bool,
}

impl Builder<'_> {
    /// Evolves the deterministic segment starting at instruction `start`
    /// and recurses into both children of the first stochastic event,
    /// returning the subtree root.
    fn explore(
        &mut self,
        start: usize,
        mut state: StateVector,
        classical: Vec<bool>,
        weight: f64,
        mut tally: RunTally,
    ) -> Result<NodeRef, Abort> {
        let circuit = self.circuit;
        for (idx, inst) in circuit.instructions().iter().enumerate().skip(start) {
            if let Some(cond) = inst.condition() {
                if !cond.evaluate(&classical) {
                    tally.cc_skipped += 1;
                    continue;
                }
                tally.cc_fired += 1;
            }
            match inst.kind() {
                OpKind::Barrier => {}
                OpKind::Gate(g) => {
                    let qubits: Vec<usize> = inst.qubits().iter().map(|q| q.index()).collect();
                    state.apply_gate(g, &qubits);
                    *tally.gates.entry(g.name()).or_insert(0) += 1;
                }
                OpKind::Measure => {
                    return self.measure_event(idx, state, classical, weight, tally);
                }
                OpKind::Reset => {
                    return self.reset_event(idx, state, classical, weight, tally);
                }
            }
        }
        self.push_leaf(classical, weight, tally)
    }

    /// A measurement: one draw against [`StateVector::measure_prob_one`],
    /// then (with positive `readout_flip`) one flip draw per outcome.
    fn measure_event(
        &mut self,
        idx: usize,
        state: StateVector,
        classical: Vec<bool>,
        weight: f64,
        mut tally: RunTally,
    ) -> Result<NodeRef, Abort> {
        if (self.poll)() {
            return Err(Abort);
        }
        let inst = &self.circuit.instructions()[idx];
        let q = inst.qubits()[0].index();
        let cbit = inst.clbits()[0].index();
        let p = state.measure_prob_one(q);
        if !p.is_finite() {
            return Err(Abort);
        }
        tally.measurements += 1;
        if self.mid.get(idx).copied().unwrap_or(false) {
            tally.mid_measurements += 1;
        }
        let on_false = self.outcome_child(
            idx,
            state.clone(),
            classical.clone(),
            weight * (1.0 - p),
            tally.clone(),
            1.0 - p,
            |st, cl| {
                st.project(q, false);
                cl[cbit] = false;
            },
            Followup::ReadoutFlip(cbit),
        )?;
        let on_true = self.outcome_child(
            idx,
            state,
            classical,
            weight * p,
            tally,
            p,
            |st, cl| {
                st.project(q, true);
                cl[cbit] = true;
            },
            Followup::ReadoutFlip(cbit),
        )?;
        self.push_node(p, on_false, on_true)
    }

    /// A reset: one draw against [`StateVector::measure_prob_one`], then
    /// (with positive `reset_error`) one error draw per outcome.
    fn reset_event(
        &mut self,
        idx: usize,
        state: StateVector,
        classical: Vec<bool>,
        weight: f64,
        mut tally: RunTally,
    ) -> Result<NodeRef, Abort> {
        if (self.poll)() {
            return Err(Abort);
        }
        let inst = &self.circuit.instructions()[idx];
        let q = inst.qubits()[0].index();
        let p = state.measure_prob_one(q);
        if !p.is_finite() {
            return Err(Abort);
        }
        tally.resets += 1;
        let on_false = self.outcome_child(
            idx,
            state.clone(),
            classical.clone(),
            weight * (1.0 - p),
            tally.clone(),
            1.0 - p,
            |st, _| {
                st.project(q, false);
            },
            Followup::ResetError(q),
        )?;
        let on_true = self.outcome_child(
            idx,
            state,
            classical,
            weight * p,
            tally,
            p,
            |st, _| {
                // Mirrors the per-shot `StateVector::reset`: the X follows
                // the projection unconditionally, even when the projection
                // bailed on a vanishing branch.
                st.project(q, true);
                st.apply_gate(&qcir::Gate::X, &[q]);
            },
            Followup::ResetError(q),
        )?;
        self.push_node(p, on_false, on_true)
    }

    /// Builds one outcome child of a measurement/reset node: applies the
    /// collapse, then models the follow-up noise draw (`readout_flip` for
    /// measurements, `reset_error` for resets) as a nested decision node.
    #[allow(clippy::too_many_arguments)]
    fn outcome_child(
        &mut self,
        idx: usize,
        mut state: StateVector,
        mut classical: Vec<bool>,
        weight: f64,
        tally: RunTally,
        edge_p: f64,
        collapse: impl FnOnce(&mut StateVector, &mut [bool]),
        followup: Followup,
    ) -> Result<NodeRef, Abort> {
        if edge_p <= BRANCH_EPS || weight <= BRANCH_EPS {
            // Impossible (`gen_bool(0.0)` is always false, `gen_bool(1.0)`
            // always true, so a 0-probability edge is never walked) or too
            // rare to be worth a subtree: walks landing here replay.
            self.pruned += 1;
            return Ok(NodeRef::Bail);
        }
        collapse(&mut state, &mut classical);
        let noise_p = match followup {
            Followup::ReadoutFlip(_) => self.noise.readout_flip,
            Followup::ResetError(_) => self.noise.reset_error,
        };
        if noise_p <= 0.0 {
            return self.explore(idx + 1, state, classical, weight, tally);
        }
        // The per-shot path draws `gen_bool(noise_p)` on every outcome, so
        // the tree needs the node even when one side is (near-)impossible.
        let on_false = if 1.0 - noise_p <= BRANCH_EPS {
            self.pruned += 1;
            NodeRef::Bail
        } else {
            self.explore(
                idx + 1,
                state.clone(),
                classical.clone(),
                weight * (1.0 - noise_p),
                tally.clone(),
            )?
        };
        let on_true = if noise_p <= BRANCH_EPS {
            self.pruned += 1;
            NodeRef::Bail
        } else {
            match followup {
                Followup::ReadoutFlip(cbit) => classical[cbit] = !classical[cbit],
                Followup::ResetError(q) => state.apply_gate(&qcir::Gate::X, &[q]),
            }
            self.explore(idx + 1, state, classical, weight * noise_p, tally)?
        };
        self.push_node(noise_p, on_false, on_true)
    }

    fn push_node(&mut self, p: f64, on_false: NodeRef, on_true: NodeRef) -> Result<NodeRef, Abort> {
        if self.nodes.len() + self.leaves.len() >= self.max_nodes {
            return Err(Abort);
        }
        self.nodes.push(DrawNode {
            p,
            on_false,
            on_true,
        });
        Ok(NodeRef::Draw((self.nodes.len() - 1) as u32))
    }

    fn push_leaf(
        &mut self,
        classical: Vec<bool>,
        weight: f64,
        tally: RunTally,
    ) -> Result<NodeRef, Abort> {
        if self.nodes.len() + self.leaves.len() >= self.max_nodes {
            return Err(Abort);
        }
        self.leaves.push(Leaf {
            classical,
            weight,
            tally,
        });
        Ok(NodeRef::Leaf((self.leaves.len() - 1) as u32))
    }
}

/// The stochastic follow-up draw an outcome child may carry.
#[derive(Debug, Clone, Copy)]
enum Followup {
    /// `readout_flip`: on `true`, flips this classical bit.
    ReadoutFlip(usize),
    /// `reset_error`: on `true`, applies X to this qubit.
    ResetError(usize),
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcir::{Clbit, Gate, Qubit};

    #[test]
    fn leaf_weights_are_products_of_per_shot_probabilities_bit_for_bit() {
        // A fused `h t h` matrix rounds differently from the three gates,
        // so this circuit tells any other evolution from the per-shot one.
        let (q, c) = (Qubit::new(0), Clbit::new);
        let mut circ = Circuit::new(1, 2);
        circ.h(q).t(q).h(q).measure(q, c(0));
        circ.h(q).t(q).h(q).measure(q, c(1));
        let tree = PrefixTree::build(&circ, &NoiseModel::ideal()).expect("the tree builds");
        let dist = tree.leaf_distribution();
        assert_eq!(dist.len(), 4);
        for (first, second) in [(false, false), (false, true), (true, false), (true, true)] {
            let mut state = StateVector::zero_state(1);
            let mut weight = 1.0;
            for outcome in [first, second] {
                for gate in [Gate::H, Gate::T, Gate::H] {
                    state.apply_gate(&gate, &[0]);
                }
                let p = state.measure_prob_one(0);
                weight *= if outcome { p } else { 1.0 - p };
                state.project(0, outcome);
            }
            let key = crate::counts::bitstring(&[first, second]);
            assert_eq!(dist.get(&key).to_bits(), weight.to_bits(), "{key}");
        }
    }
}
