//! Qubit-reuse planning: the design space between "one data qubit" and
//! "no reuse at all".
//!
//! The paper's transformation folds all `m` work qubits onto **one**
//! physical data qubit. Rovara, Burgholzer & Wille generalize this: any
//! partition of the work-qubit iteration order into `k` *lanes* — each lane
//! an increasing subsequence replayed on its own physical wire — yields a
//! legal dynamic circuit, trading width (`k + answers` wires) against depth
//! and classicalization. `k = 1` is the paper's scheme; `k = m` is the
//! original circuit (modulo wire naming and final measurements).
//!
//! * [`ReusePlan`] — a concrete lane assignment consumed by
//!   [`transform_with_plan`](crate::transform_with_plan);
//! * [`ReuseMode`] — the user-facing selector (`auto`, `off`, or a width);
//! * [`plan_with_scheme`] — the planner: enumerates lane partitions for the
//!   requested width(s), scores feasible plans with a
//!   [`CostModel`](crate::CostModel) and returns the best dynamic circuit
//!   together with a [`ReuseReport`].

use crate::cost::{CostModel, ResourceSummary};
use crate::error::DqcError;
use crate::reorder::reorder_work_qubits;
use crate::roles::{QubitRoles, Role};
use crate::scheme::{lower_for_scheme, DynamicScheme};
use crate::transform::{transform_with_plan_observed, DynamicCircuit, TransformOptions};
use qcir::reuse::lane_partitions;
use qcir::{Circuit, OpKind, Qubit};
use qobs::Observer;
use std::fmt;
use std::str::FromStr;

/// The user-facing reuse selector, as parsed from `--reuse=auto|off|<k>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReuseMode {
    /// Pick the width with the best cost-model score among all feasible
    /// widths (ties go to the smaller width).
    Auto,
    /// No reuse: every work qubit keeps its own physical wire (`k = m`).
    Off,
    /// Fold onto exactly this many physical lanes (`1..=m`); `1` is the
    /// paper's single-data-qubit scheme.
    Width(usize),
}

impl fmt::Display for ReuseMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReuseMode::Auto => f.write_str("auto"),
            ReuseMode::Off => f.write_str("off"),
            ReuseMode::Width(k) => write!(f, "{k}"),
        }
    }
}

impl FromStr for ReuseMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "auto" => Ok(ReuseMode::Auto),
            "off" => Ok(ReuseMode::Off),
            _ => match s.parse::<usize>() {
                Ok(k) if k >= 1 => Ok(ReuseMode::Width(k)),
                _ => Err(format!(
                    "invalid reuse mode '{s}' (expected auto, off, or a width >= 1)"
                )),
            },
        }
    }
}

/// How the emitter folds work qubits onto physical lanes.
///
/// A plan is resolved against the work-qubit iteration order (the Case-2
/// topological order) at transform time: each lane must be a non-empty,
/// strictly increasing subsequence of that order, the lanes must partition
/// it, and lanes are listed in order of their first qubit. Lane `i` replays
/// on physical wire `i`; answer qubits follow on wires `k..`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReusePlan {
    kind: PlanKind,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum PlanKind {
    SingleLane,
    FullWidth,
    Lanes(Vec<Vec<Qubit>>),
}

impl ReusePlan {
    /// The paper's scheme: all work qubits share one physical data qubit.
    #[must_use]
    pub fn single_lane() -> Self {
        Self {
            kind: PlanKind::SingleLane,
        }
    }

    /// No reuse: each work qubit gets its own lane (`k = m`).
    #[must_use]
    pub fn full_width() -> Self {
        Self {
            kind: PlanKind::FullWidth,
        }
    }

    /// An explicit lane assignment (validated at transform time).
    #[must_use]
    pub fn from_lanes(lanes: Vec<Vec<Qubit>>) -> Self {
        Self {
            kind: PlanKind::Lanes(lanes),
        }
    }

    /// Resolves the plan against a concrete work-qubit order.
    ///
    /// # Errors
    ///
    /// [`DqcError::InvalidPlan`] when explicit lanes do not partition
    /// `work_order` into increasing subsequences ordered by first qubit.
    pub fn resolve(&self, work_order: &[Qubit]) -> Result<Vec<Vec<Qubit>>, DqcError> {
        match &self.kind {
            PlanKind::SingleLane => Ok(if work_order.is_empty() {
                Vec::new()
            } else {
                vec![work_order.to_vec()]
            }),
            PlanKind::FullWidth => Ok(work_order.iter().map(|&q| vec![q]).collect()),
            PlanKind::Lanes(lanes) => {
                let pos = |q: Qubit| work_order.iter().position(|&w| w == q);
                let mut covered = vec![false; work_order.len()];
                for lane in lanes {
                    if lane.is_empty() {
                        return Err(DqcError::InvalidPlan {
                            reason: "empty lane".into(),
                        });
                    }
                    let mut prev: Option<usize> = None;
                    for &q in lane {
                        let Some(p) = pos(q) else {
                            return Err(DqcError::InvalidPlan {
                                reason: format!("{q} is not a work qubit"),
                            });
                        };
                        if covered[p] {
                            return Err(DqcError::InvalidPlan {
                                reason: format!("{q} appears in more than one lane"),
                            });
                        }
                        covered[p] = true;
                        if let Some(pv) = prev {
                            if p <= pv {
                                return Err(DqcError::InvalidPlan {
                                    reason: format!(
                                        "{q} violates the iteration order within its lane"
                                    ),
                                });
                            }
                        }
                        prev = Some(p);
                    }
                }
                if covered.iter().any(|&c| !c) {
                    return Err(DqcError::InvalidPlan {
                        reason: "lanes do not cover every work qubit".into(),
                    });
                }
                for pair in lanes.windows(2) {
                    let (a, b) = (pos(pair[0][0]), pos(pair[1][0]));
                    if a >= b {
                        return Err(DqcError::InvalidPlan {
                            reason: "lanes are not ordered by their first qubit".into(),
                        });
                    }
                }
                Ok(lanes.clone())
            }
        }
    }
}

/// Activation/retirement schedule derived from resolved lanes.
///
/// Positions refer to the work-qubit iteration order. A lane head activates
/// at step 0 (all lanes start together); a later lane member activates at
/// its own position, retiring its predecessor. A qubit retires when its
/// lane successor activates, or at step `m` (end of circuit) for the last
/// member of a lane.
pub(crate) struct LaneSchedule {
    /// Position in the work order, by qubit wire index.
    pos: Vec<Option<usize>>,
    /// Lane index, by qubit wire index.
    lane: Vec<Option<usize>>,
    /// Activation step, by work-order position.
    activate: Vec<usize>,
    /// Retirement step, by work-order position.
    retire: Vec<usize>,
}

impl LaneSchedule {
    pub(crate) fn new(lanes: &[Vec<Qubit>], work_order: &[Qubit], num_qubits: usize) -> Self {
        let m = work_order.len();
        let mut pos = vec![None; num_qubits];
        for (p, &w) in work_order.iter().enumerate() {
            pos[w.index()] = Some(p);
        }
        let mut lane = vec![None; num_qubits];
        let mut activate = vec![0usize; m];
        let mut retire = vec![m; m];
        for (l, members) in lanes.iter().enumerate() {
            for (j, &w) in members.iter().enumerate() {
                lane[w.index()] = Some(l);
                let p = pos[w.index()].expect("lane member is in the work order");
                activate[p] = if j == 0 { 0 } else { p };
                retire[p] = members
                    .get(j + 1)
                    .and_then(|&s| pos[s.index()])
                    .unwrap_or(m);
            }
        }
        Self {
            pos,
            lane,
            activate,
            retire,
        }
    }

    /// The physical lane of a work qubit.
    pub(crate) fn lane_of(&self, q: Qubit) -> usize {
        self.lane[q.index()].expect("work qubit has a lane")
    }

    /// `true` when operand `q` of a gate over `gate_qubits` is guaranteed
    /// to be retired (measured) by the time the gate can first be emitted —
    /// the static prediction that its value will be read classically.
    pub(crate) fn statically_classical(&self, q: Qubit, gate_qubits: &[Qubit]) -> bool {
        let Some(p) = self.pos[q.index()] else {
            return false;
        };
        let t_emit = gate_qubits
            .iter()
            .filter_map(|&x| self.pos[x.index()])
            .map(|xp| self.activate[xp])
            .max()
            .unwrap_or(0);
        self.retire[p] <= t_emit
    }
}

/// Quick static feasibility check of a lane assignment: every operand that
/// will be retired by a gate's earliest emission step must be a *data
/// control* whose early classical read is exact (no later basis-changing
/// gates on it — the deferred-measurement criterion; at `width == 1` the
/// paper's approximation applies instead and the read is always allowed).
/// A plan passing this check can still fail in the emitter
/// (commutation-blocked hoisting can delay a gate past a retirement), so
/// the planner attempts the transform as the final filter.
fn statically_feasible(
    circuit: &Circuit,
    roles: &QubitRoles,
    sched: &LaneSchedule,
    width: usize,
    frontier: &[Option<usize>],
) -> bool {
    for (idx, inst) in circuit.iter().enumerate() {
        let OpKind::Gate(gate) = inst.kind() else {
            continue;
        };
        let qubits = inst.qubits();
        let n_ctrl = gate.num_controls();
        for (k, &qb) in qubits.iter().enumerate() {
            if matches!(roles.role_of(qb), Some(Role::Answer) | None) {
                continue;
            }
            if sched.statically_classical(qb, qubits) {
                let sound = width <= 1 || frontier[qb.index()].is_none_or(|last| last <= idx);
                let classicalizable =
                    k < n_ctrl && matches!(roles.role_of(qb), Some(Role::Data)) && sound;
                if !classicalizable {
                    return false;
                }
            }
        }
    }
    true
}

/// One planned realization: the chosen lanes, the emitted circuit and its
/// score under the planner's cost model.
#[derive(Debug, Clone)]
pub struct PlannedTransform {
    /// The lane assignment (lowered-circuit qubit ids).
    pub lanes: Vec<Vec<Qubit>>,
    /// The emitted dynamic circuit.
    pub dynamic: DynamicCircuit,
    /// Resource summary of the emitted circuit.
    pub summary: ResourceSummary,
    /// Cost-model score (lower is better).
    pub score: f64,
}

/// What the planner decided and how hard it had to look.
#[derive(Debug, Clone)]
pub struct ReuseReport {
    /// The requested mode.
    pub mode: ReuseMode,
    /// The selected physical width (lanes).
    pub k: usize,
    /// The number of work qubits (`m`; the width of `off`).
    pub max_width: usize,
    /// The selected lane assignment (lowered-circuit qubit ids).
    pub lanes: Vec<Vec<Qubit>>,
    /// Cost-model score of the selection (lower is better).
    pub score: f64,
    /// Candidate plans attempted across all widths considered.
    pub candidates: usize,
    /// Widths with at least one feasible plan, among those considered.
    pub feasible_widths: Vec<usize>,
}

impl fmt::Display for ReuseReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "mode={} k={}/{} lanes={} candidates={} score={:.2}",
            self.mode,
            self.k,
            self.max_width,
            self.lanes.len(),
            self.candidates,
            self.score
        )
    }
}

/// The planner's search budget: at most this many lane partitions are
/// enumerated per width. `S(m, k)` stays far below this for every seeded
/// suite; larger circuits degrade gracefully to a prefix of the
/// (deterministic) enumeration order.
pub const DEFAULT_CANDIDATE_CAP: usize = 4096;

/// Plans and emits the best dynamic circuit for `mode` under `scheme`.
///
/// Lowering happens once (per the scheme), then lane partitions of the
/// lowered work order are enumerated per width, statically filtered,
/// transformed, scored with `cost`, and the best feasible plan is returned.
/// Deterministic: ties go to the earlier candidate in enumeration order,
/// and `auto` ties go to the smaller width.
///
/// # Errors
///
/// Propagates lowering/transform errors when no width is feasible; returns
/// [`DqcError::InvalidPlan`] when a requested fixed width has no feasible
/// plan but other widths do.
pub fn plan_with_scheme(
    circuit: &Circuit,
    roles: &QubitRoles,
    scheme: DynamicScheme,
    mode: ReuseMode,
    cost: &CostModel,
    options: &TransformOptions,
) -> Result<(DynamicCircuit, ReuseReport), DqcError> {
    plan_with_scheme_observed(
        circuit,
        roles,
        scheme,
        mode,
        cost,
        options,
        &Observer::disabled(),
    )
}

/// [`plan_with_scheme`] with instrumentation: wraps the search in a
/// `transform.plan` span and records the `reuse.k_selected` gauge.
///
/// # Errors
///
/// Same as [`plan_with_scheme`].
pub fn plan_with_scheme_observed(
    circuit: &Circuit,
    roles: &QubitRoles,
    scheme: DynamicScheme,
    mode: ReuseMode,
    cost: &CostModel,
    options: &TransformOptions,
    obs: &Observer,
) -> Result<(DynamicCircuit, ReuseReport), DqcError> {
    let (lowered, lowered_roles) = lower_for_scheme(circuit, roles, scheme, obs);
    let work_order = reorder_work_qubits(&lowered, &lowered_roles)?;
    let m = work_order.len();

    let span = obs.span("transform.plan");

    let widths: Vec<usize> = match mode {
        ReuseMode::Auto => (1..=m.max(1)).collect(),
        ReuseMode::Off => vec![m.max(1)],
        ReuseMode::Width(k) => vec![k],
    };

    if let ReuseMode::Width(k) = mode {
        if k > m.max(1) {
            return Err(DqcError::InvalidPlan {
                reason: format!("requested width {k} exceeds the {m} work qubit(s)"),
            });
        }
    }

    let mut candidates = 0usize;
    let mut feasible_widths = Vec::new();
    let mut best: Option<(usize, PlannedTransform)> = None;
    let mut first_err: Option<DqcError> = None;

    for &k in &widths {
        match best_plan_for_width(
            &lowered,
            &lowered_roles,
            &work_order,
            k,
            cost,
            options,
            obs,
            &mut candidates,
        ) {
            Ok(planned) => {
                feasible_widths.push(k);
                let better = match &best {
                    None => true,
                    Some((_, cur)) => planned.score < cur.score,
                };
                if better {
                    best = Some((k, planned));
                }
            }
            Err(e) => {
                if first_err.is_none() {
                    first_err = Some(e);
                }
            }
        }
    }

    let Some((k, planned)) = best else {
        // No feasible width at all: surface the first underlying error.
        return Err(first_err.unwrap_or(DqcError::InvalidPlan {
            reason: "no feasible reuse plan".into(),
        }));
    };
    drop(span);

    obs.gauge_set("reuse.k_selected", k as f64);

    let report = ReuseReport {
        mode,
        k,
        max_width: m,
        lanes: planned.lanes,
        score: planned.score,
        candidates,
        feasible_widths,
    };
    Ok((planned.dynamic, report))
}

/// The best feasible plan of exactly `k` lanes, by cost-model score.
///
/// # Errors
///
/// The first transform error when no partition of width `k` is feasible
/// (or [`DqcError::InvalidPlan`] when `k` is out of range).
#[allow(clippy::too_many_arguments)]
fn best_plan_for_width(
    lowered: &Circuit,
    roles: &QubitRoles,
    work_order: &[Qubit],
    k: usize,
    cost: &CostModel,
    options: &TransformOptions,
    obs: &Observer,
    candidates: &mut usize,
) -> Result<PlannedTransform, DqcError> {
    let m = work_order.len();
    if m == 0 {
        // Degenerate: no work qubits; the single-lane plan emits the
        // answer-only circuit on one (idle) physical wire.
        let dynamic =
            transform_with_plan_observed(lowered, roles, &ReusePlan::single_lane(), options, obs)?;
        let summary = ResourceSummary::of_dynamic(&dynamic);
        let score = cost.score(&summary);
        *candidates += 1;
        return Ok(PlannedTransform {
            lanes: Vec::new(),
            dynamic,
            summary,
            score,
        });
    }
    if k == 0 || k > m {
        return Err(DqcError::InvalidPlan {
            reason: format!("width {k} out of range 1..={m}"),
        });
    }

    let frontier: Vec<Option<usize>> = (0..lowered.num_qubits())
        .map(|i| qcir::reuse::last_nondiagonal_action(lowered, Qubit::new(i)))
        .collect();
    let sched_feasible = |lanes: &[Vec<Qubit>]| {
        let sched = LaneSchedule::new(lanes, work_order, lowered.num_qubits());
        statically_feasible(lowered, roles, &sched, k, &frontier)
    };

    let mut best: Option<PlannedTransform> = None;
    let mut first_err: Option<DqcError> = None;
    for part in lane_partitions(m, k, DEFAULT_CANDIDATE_CAP) {
        let lanes: Vec<Vec<Qubit>> = part
            .iter()
            .map(|lane| lane.iter().map(|&p| work_order[p]).collect())
            .collect();
        if !sched_feasible(&lanes) {
            continue;
        }
        *candidates += 1;
        let plan = ReusePlan::from_lanes(lanes.clone());
        match transform_with_plan_observed(lowered, roles, &plan, options, obs) {
            Ok(dynamic) => {
                let summary = ResourceSummary::of_dynamic(&dynamic);
                let score = cost.score(&summary);
                let better = best.as_ref().is_none_or(|b| score < b.score);
                if better {
                    best = Some(PlannedTransform {
                        lanes,
                        dynamic,
                        summary,
                        score,
                    });
                }
            }
            Err(e) => {
                if first_err.is_none() {
                    first_err = Some(e);
                }
            }
        }
    }
    best.ok_or_else(|| {
        first_err.unwrap_or(DqcError::InvalidPlan {
            reason: format!("no feasible reuse plan of width {k}"),
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(i: usize) -> Qubit {
        Qubit::new(i)
    }

    #[test]
    fn mode_parses_and_displays() {
        assert_eq!("auto".parse::<ReuseMode>().unwrap(), ReuseMode::Auto);
        assert_eq!("off".parse::<ReuseMode>().unwrap(), ReuseMode::Off);
        assert_eq!("3".parse::<ReuseMode>().unwrap(), ReuseMode::Width(3));
        assert!("0".parse::<ReuseMode>().is_err());
        assert!("wat".parse::<ReuseMode>().is_err());
        assert_eq!(ReuseMode::Auto.to_string(), "auto");
        assert_eq!(ReuseMode::Off.to_string(), "off");
        assert_eq!(ReuseMode::Width(2).to_string(), "2");
    }

    #[test]
    fn single_lane_resolves_to_the_whole_order() {
        let order = vec![q(0), q(1), q(2)];
        assert_eq!(
            ReusePlan::single_lane().resolve(&order).unwrap(),
            vec![order.clone()]
        );
        assert_eq!(
            ReusePlan::full_width().resolve(&order).unwrap(),
            vec![vec![q(0)], vec![q(1)], vec![q(2)]]
        );
    }

    #[test]
    fn explicit_lanes_are_validated() {
        let order = vec![q(0), q(1), q(2)];
        // Valid: two increasing lanes ordered by first qubit.
        assert!(ReusePlan::from_lanes(vec![vec![q(0), q(2)], vec![q(1)]])
            .resolve(&order)
            .is_ok());
        // Decreasing within a lane.
        assert!(matches!(
            ReusePlan::from_lanes(vec![vec![q(2), q(0)], vec![q(1)]]).resolve(&order),
            Err(DqcError::InvalidPlan { .. })
        ));
        // Missing a qubit.
        assert!(matches!(
            ReusePlan::from_lanes(vec![vec![q(0), q(1)]]).resolve(&order),
            Err(DqcError::InvalidPlan { .. })
        ));
        // Duplicated qubit.
        assert!(matches!(
            ReusePlan::from_lanes(vec![vec![q(0), q(1)], vec![q(1), q(2)]]).resolve(&order),
            Err(DqcError::InvalidPlan { .. })
        ));
        // Lanes out of order.
        assert!(matches!(
            ReusePlan::from_lanes(vec![vec![q(1), q(2)], vec![q(0)]]).resolve(&order),
            Err(DqcError::InvalidPlan { .. })
        ));
        // Not a work qubit.
        assert!(matches!(
            ReusePlan::from_lanes(vec![vec![q(0), q(7)], vec![q(1), q(2)]]).resolve(&order),
            Err(DqcError::InvalidPlan { .. })
        ));
        // Empty lane.
        assert!(matches!(
            ReusePlan::from_lanes(vec![vec![], vec![q(0), q(1), q(2)]]).resolve(&order),
            Err(DqcError::InvalidPlan { .. })
        ));
    }

    #[test]
    fn schedule_marks_static_classical_reads() {
        // Work order d0, d1; single lane: d0 retires when d1 activates.
        let order = vec![q(0), q(1)];
        let lanes = vec![order.clone()];
        let sched = LaneSchedule::new(&lanes, &order, 3);
        // CX(d0, d1): emitted at d1's activation (step 1), d0 retired then.
        assert!(sched.statically_classical(q(0), &[q(0), q(1)]));
        assert!(!sched.statically_classical(q(1), &[q(0), q(1)]));
        // CX(d0, answer): emitted while d0 is active.
        assert!(!sched.statically_classical(q(0), &[q(0), q(2)]));

        // Two lanes: both active from step 0, nothing classical.
        let lanes2 = vec![vec![q(0)], vec![q(1)]];
        let sched2 = LaneSchedule::new(&lanes2, &order, 3);
        assert!(!sched2.statically_classical(q(0), &[q(0), q(1)]));
    }
}
