//! Algorithm 1, generalized to `k` physical lanes: the
//! traditional-to-dynamic circuit transformation.
//!
//! Given a unitary circuit and a data/ancilla/answer role partition, the
//! transformation emits a circuit on **`k` physical lane wires plus the
//! answer qubits** that replays each work qubit's gates in its own
//! *iteration* on its lane: active reset, the qubit's unitary gates (with
//! interactions to already-measured work qubits replaced by classically
//! controlled gates), then a mid-circuit measurement into the classical
//! result register (data qubits only). The paper's scheme is the `k = 1`
//! special case ([`ReusePlan::single_lane`], the default of [`transform`]);
//! `k = m` ([`ReusePlan::full_width`]) performs no reuse and reproduces the
//! input gates with trailing measurements.
//!
//! ## Scheduling semantics
//!
//! Lane heads all activate at the start; a later lane member activates at
//! its position in the Case-2 work order, retiring (measuring) its lane
//! predecessor first. After every activation a scheduling sweep emits each
//! currently-eligible gate in original circuit order. A gate that cannot
//! run yet is *deferred*; deferring establishes ordering constraints on the
//! wires where the gate will still act **quantumly** (answer wires and
//! not-yet-retired work qubits), and a subsequent gate may only be hoisted
//! past a deferred one when they share no such wire or provably commute
//! ([`gates_commute`]: decided from the operands for controlled X-powers,
//! by an exact matrix test otherwise).
//!
//! At `k = 1`, constraints on the *control* side of a work-to-work gate are
//! deliberately released — the control is read from its measurement result
//! instead, which is the approximation the paper accepts (and the reason
//! dynamic-1 loses accuracy, see the `verify` module). At `k > 1` a control
//! wire is only released when the schedule *guarantees* the control retires
//! before the gate can first be emitted; concurrently-live lanes keep their
//! quantum ordering.

use crate::error::DqcError;
use crate::reorder::reorder_work_qubits;
use crate::reuse::{LaneSchedule, ReusePlan};
use crate::roles::{QubitRoles, Role};
use qcir::commute::gates_commute;
use qcir::passes::{
    cancel_adjacent_inverses, merge_conditioned_x_runs, remove_dead_writes_assuming_discarded,
};
use qcir::{Circuit, Clbit, Condition, Gate, Instruction, OpKind, Qubit};
use qobs::Observer;

/// Options controlling the emitted dynamic circuit.
///
/// Defaults match the accounting of the paper's Tables I/II: the first
/// iteration starts from the device's ground state (no leading reset),
/// answer qubits are not reset, and the peephole cleanup that cancels
/// redundant classically controlled operations is enabled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransformOptions {
    /// Emit an active reset before the first iteration of every lane too.
    pub reset_first_iteration: bool,
    /// Emit active resets of the answer qubits before the first iteration.
    pub reset_answer_qubits: bool,
    /// Separate iterations with barriers (for readability; excluded from
    /// gate counts and depth by the metrics conventions).
    pub insert_barriers: bool,
    /// Run dead-write elimination and inverse-pair cancellation on the
    /// result (Lemma 1's "2 classically controlled X per Toffoli" relies on
    /// this).
    pub peephole: bool,
}

impl Default for TransformOptions {
    fn default() -> Self {
        Self {
            reset_first_iteration: false,
            reset_answer_qubits: false,
            insert_barriers: false,
            peephole: true,
        }
    }
}

/// Per-iteration bookkeeping of a [`DynamicCircuit`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IterationInfo {
    /// The original work qubit this iteration replays.
    pub work_qubit: Qubit,
    /// Its role (data or ancilla).
    pub role: Role,
    /// `true` when the iteration ends with a measurement (data qubits).
    pub measured: bool,
    /// The physical lane wire this iteration runs on (`0` at `k = 1`).
    pub lane: usize,
}

/// The result of the dynamic transformation.
///
/// Wire layout of [`DynamicCircuit::circuit`]: qubits `0..k` are the
/// physical lane wires (`k = 1` for the paper's scheme); qubits
/// `k..k + a` are the `a` answer qubits in the role partition's order.
/// Classical bit `i` holds the measurement of data qubit `roles.data()[i]`,
/// independent of the lane it ran on.
#[derive(Debug, Clone, PartialEq)]
pub struct DynamicCircuit {
    circuit: Circuit,
    answer_qubits: Vec<Qubit>,
    result_bits: Vec<Clbit>,
    iterations: Vec<IterationInfo>,
    lanes: usize,
}

impl DynamicCircuit {
    /// The emitted dynamic circuit.
    #[must_use]
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// Consumes `self`, returning the circuit.
    #[must_use]
    pub fn into_circuit(self) -> Circuit {
        self.circuit
    }

    /// The first physical lane wire (wire 0) — the unique data qubit of the
    /// paper's `k = 1` scheme.
    #[must_use]
    pub fn data_qubit(&self) -> Qubit {
        Qubit::new(0)
    }

    /// Number of physical lane wires (`k`; 1 for the paper's scheme).
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// The physical lane wires, `0..k`.
    #[must_use]
    pub fn lane_wires(&self) -> Vec<Qubit> {
        (0..self.lanes).map(Qubit::new).collect()
    }

    /// The physical answer qubits, in the role partition's answer order.
    #[must_use]
    pub fn answer_qubits(&self) -> &[Qubit] {
        &self.answer_qubits
    }

    /// Classical result bits; bit `i` holds the outcome of the `i`-th
    /// original data qubit.
    #[must_use]
    pub fn result_bits(&self) -> &[Clbit] {
        &self.result_bits
    }

    /// Iteration structure, in activation order.
    #[must_use]
    pub fn iterations(&self) -> &[IterationInfo] {
        &self.iterations
    }

    /// Number of iterations (the paper's key dynamic-circuit cost metric).
    #[must_use]
    pub fn num_iterations(&self) -> usize {
        self.iterations.len()
    }

    /// Splits the emitted instruction stream into per-iteration slices,
    /// using the wire-0 resets as separators (the reset *starts* the
    /// next iteration, matching the paper's definition of an iteration as
    /// "all operations between a reset and a measurement").
    ///
    /// This is a single-lane notion: at `k = 1` the number of slices equals
    /// [`DynamicCircuit::num_iterations`] and the slices partition the
    /// instruction list. For `k > 1` use [`DynamicCircuit::lane_slices`],
    /// which tracks one lane's replays individually.
    #[must_use]
    pub fn iteration_slices(&self) -> Vec<&[Instruction]> {
        let insts = self.circuit.instructions();
        let qd = self.data_qubit();
        let mut boundaries = vec![0usize];
        for (idx, inst) in insts.iter().enumerate() {
            if matches!(inst.kind(), OpKind::Reset) && inst.qubits() == [qd] && idx > 0 {
                boundaries.push(idx);
            }
        }
        boundaries.push(insts.len());
        boundaries.windows(2).map(|w| &insts[w[0]..w[1]]).collect()
    }

    /// Instruction indices touching lane `lane`'s wire, split into one
    /// group per replay: a reset on the wire (after it has already been
    /// used) starts the next group. Barriers are skipped. The number of
    /// groups equals the number of iterations scheduled on that lane.
    #[must_use]
    pub fn lane_slices(&self, lane: usize) -> Vec<Vec<usize>> {
        let wire = Qubit::new(lane);
        let mut slices: Vec<Vec<usize>> = Vec::new();
        let mut current: Vec<usize> = Vec::new();
        for (idx, inst) in self.circuit.iter().enumerate() {
            if inst.is_barrier() || !inst.qubits().contains(&wire) {
                continue;
            }
            if matches!(inst.kind(), OpKind::Reset) && !current.is_empty() {
                slices.push(std::mem::take(&mut current));
            }
            current.push(idx);
        }
        if !current.is_empty() {
            slices.push(current);
        }
        slices
    }
}

/// Applies Algorithm 1 to `circuit` under the given role partition, folding
/// all work qubits onto one physical data qubit (the paper's scheme,
/// [`ReusePlan::single_lane`]).
///
/// # Errors
///
/// * [`DqcError::InvalidRoles`] — the partition does not cover the circuit.
/// * [`DqcError::Unrealizable`] — the input contains non-unitary or
///   classically conditioned operations, couples work qubits without a
///   control/target structure, or references a consumed work qubit in a way
///   that cannot be classicalized.
/// * [`DqcError::CyclicDependency`] — no iteration order satisfies Case 2.
/// * [`DqcError::Incomplete`] — gates remained unschedulable (non-commuting
///   entanglement structure on the answer wires).
///
/// # Examples
///
/// Transforming a 3-qubit Bernstein-Vazirani-style circuit to 2 qubits:
///
/// ```
/// use dqc::{transform, QubitRoles, TransformOptions};
/// use qcir::{Circuit, Qubit};
///
/// let q = Qubit::new;
/// let mut bv = Circuit::new(3, 0);
/// bv.x(q(2)).h(q(2));
/// bv.h(q(0)).cx(q(0), q(2)).h(q(0));
/// bv.h(q(1)).cx(q(1), q(2)).h(q(1));
/// let roles = QubitRoles::data_plus_answer(3);
/// let dyn_circ = transform(&bv, &roles, &TransformOptions::default()).unwrap();
/// assert_eq!(dyn_circ.circuit().num_qubits(), 2);
/// assert_eq!(dyn_circ.num_iterations(), 2);
/// ```
pub fn transform(
    circuit: &Circuit,
    roles: &QubitRoles,
    options: &TransformOptions,
) -> Result<DynamicCircuit, DqcError> {
    transform_observed(circuit, roles, options, &Observer::disabled())
}

/// [`transform`] with instrumentation: records spans for the role
/// partition check (`transform.roles`), the work-qubit reorder
/// (`transform.reorder`), the whole emission loop (`transform.emit`) and
/// the peephole cleanup (`transform.peephole`), plus one
/// `transform.iteration` event per emitted iteration, a `reuse.lanes`
/// gauge and a `reuse.resets_inserted` counter.
///
/// With a disabled observer this is exactly [`transform`] — every
/// instrumentation call short-circuits on a boolean.
///
/// # Errors
///
/// Same as [`transform`].
pub fn transform_observed(
    circuit: &Circuit,
    roles: &QubitRoles,
    options: &TransformOptions,
    obs: &Observer,
) -> Result<DynamicCircuit, DqcError> {
    transform_with_plan_observed(circuit, roles, &ReusePlan::single_lane(), options, obs)
}

/// Applies the generalized transformation under an explicit reuse plan.
///
/// The plan's lanes are resolved against the Case-2 work order; lane `i`
/// replays its member qubits, in order, on physical wire `i`.
///
/// # Errors
///
/// Everything [`transform`] raises, plus [`DqcError::InvalidPlan`] when the
/// plan does not partition the work order into ordered increasing lanes.
pub fn transform_with_plan(
    circuit: &Circuit,
    roles: &QubitRoles,
    plan: &ReusePlan,
    options: &TransformOptions,
) -> Result<DynamicCircuit, DqcError> {
    transform_with_plan_observed(circuit, roles, plan, options, &Observer::disabled())
}

/// Lifecycle of a qubit in the lane emitter.
#[derive(Clone, Copy, PartialEq, Eq)]
enum FoldState {
    /// Not folded (answer qubit).
    NonWork,
    /// Work qubit whose iteration has not started.
    Pending,
    /// Work qubit currently live on its lane wire.
    Active,
    /// Work qubit retired (measured if data); reads are classical.
    Retired,
}

/// A lane's currently-live iteration.
struct ActiveLane {
    qubit: Qubit,
    /// `out.len()` at activation (before the lane reset), for the
    /// `emitted` event field.
    start_len: usize,
    /// Index into the `iterations` list, recorded at activation.
    index: usize,
}

/// [`transform_with_plan`] with instrumentation (see
/// [`transform_observed`]).
///
/// # Errors
///
/// Same as [`transform_with_plan`].
pub fn transform_with_plan_observed(
    circuit: &Circuit,
    roles: &QubitRoles,
    plan: &ReusePlan,
    options: &TransformOptions,
    obs: &Observer,
) -> Result<DynamicCircuit, DqcError> {
    {
        let mut span = obs.span("transform.roles");
        span.field("data", roles.data().len());
        span.field("ancilla", roles.ancilla().len());
        span.field("answer", roles.answer().len());
        roles.validate(circuit)?;
    }
    for inst in circuit.iter() {
        if inst.kind().is_nonunitary() || inst.is_conditioned() {
            return Err(DqcError::Unrealizable {
                what: inst.to_string(),
                reason: "input circuit must be unitary (measurement-free)".into(),
            });
        }
    }
    let work_order = {
        let mut span = obs.span("transform.reorder");
        let order = reorder_work_qubits(circuit, roles)?;
        span.field("work_qubits", order.len());
        order
    };
    let lanes = plan.resolve(&work_order)?;
    let k = lanes.len().max(1);
    let sched = LaneSchedule::new(&lanes, &work_order, circuit.num_qubits());
    // Deferred-measurement frontier: a classical read of qubit `q` by the
    // gate at index `idx` is exact iff no gate after `idx` acts
    // non-diagonally on `q`. Only consulted for k > 1 (the single-lane
    // scheme keeps the paper's approximation instead).
    let frontier: Vec<Option<usize>> = (0..circuit.num_qubits())
        .map(|i| qcir::reuse::last_nondiagonal_action(circuit, Qubit::new(i)))
        .collect();
    let n_answer = roles.answer().len();
    let n_data = roles.data().len();

    let mut out = Circuit::with_name(format!("{}_dqc", circuit.name()), k + n_answer, n_data);
    let answer_wires: Vec<Qubit> = (k..k + n_answer).map(Qubit::new).collect();
    let result_bits: Vec<Clbit> = (0..n_data).map(Clbit::new).collect();

    if options.reset_answer_qubits {
        for &a in &answer_wires {
            out.reset(a);
        }
    }

    let mut state: Vec<FoldState> = (0..circuit.num_qubits())
        .map(|i| {
            if work_order.contains(&Qubit::new(i)) {
                FoldState::Pending
            } else {
                FoldState::NonWork
            }
        })
        .collect();
    let mut active: Vec<Option<ActiveLane>> = (0..k).map(|_| None).collect();

    let mut transformed: Vec<bool> = circuit
        .iter()
        .map(|inst| inst.is_barrier()) // barriers carry no semantics here
        .collect();
    let mut iterations: Vec<IterationInfo> = Vec::new();
    let mut emit_span = obs.span("transform.emit");
    emit_span.field("lanes", k);

    // Retires a lane's live qubit: measure (data only), mark classical and
    // fire the iteration event. `out.len() - start_len` counts everything
    // emitted while the iteration was live (at k = 1 this is exactly the
    // iteration's instructions; concurrent lanes interleave).
    let retire = |act: ActiveLane,
                  lane: usize,
                  state: &mut [FoldState],
                  iterations: &[IterationInfo],
                  out: &mut Circuit| {
        let info = &iterations[act.index];
        if info.measured {
            let bit = result_bits[roles.data_index(act.qubit).expect("data qubit has index")];
            out.measure(Qubit::new(lane), bit);
        }
        state[act.qubit.index()] = FoldState::Retired;
        obs.event(
            "transform.iteration",
            &[
                ("index", act.index.into()),
                ("work_qubit", act.qubit.index().into()),
                (
                    "role",
                    if matches!(info.role, Role::Data) {
                        "data".into()
                    } else {
                        "ancilla".into()
                    },
                ),
                ("measured", info.measured.into()),
                ("lane", lane.into()),
                ("emitted", (out.len() - act.start_len).into()),
            ],
        );
    };

    // Stage 0: every lane head activates together.
    for (l, lane) in lanes.iter().enumerate() {
        let w = lane[0];
        let start_len = out.len();
        if options.reset_first_iteration {
            out.reset(Qubit::new(l));
        }
        state[w.index()] = FoldState::Active;
        let role = roles.role_of(w).expect("work qubit has role");
        let is_data = matches!(role, Role::Data);
        active[l] = Some(ActiveLane {
            qubit: w,
            start_len,
            index: iterations.len(),
        });
        iterations.push(IterationInfo {
            work_qubit: w,
            role,
            measured: is_data,
            lane: l,
        });
    }
    sweep(
        circuit,
        roles,
        &sched,
        k,
        &frontier,
        &mut transformed,
        &state,
        &answer_wires,
        &result_bits,
        &mut out,
    )?;

    // Later lane members: retire the predecessor, reset the lane wire,
    // activate, sweep.
    for &w in &work_order {
        if state[w.index()] != FoldState::Pending {
            continue;
        }
        let l = sched.lane_of(w);
        let prev = active[l]
            .take()
            .expect("non-head lane member has an active predecessor");
        retire(prev, l, &mut state, &iterations, &mut out);
        if options.insert_barriers {
            out.barrier_all();
        }
        let start_len = out.len();
        out.reset(Qubit::new(l));
        state[w.index()] = FoldState::Active;
        let role = roles.role_of(w).expect("work qubit has role");
        let is_data = matches!(role, Role::Data);
        active[l] = Some(ActiveLane {
            qubit: w,
            start_len,
            index: iterations.len(),
        });
        iterations.push(IterationInfo {
            work_qubit: w,
            role,
            measured: is_data,
            lane: l,
        });
        sweep(
            circuit,
            roles,
            &sched,
            k,
            &frontier,
            &mut transformed,
            &state,
            &answer_wires,
            &result_bits,
            &mut out,
        )?;
    }

    // Final retirements (each lane's last member), in work-qubit order.
    for &w in &work_order {
        if state[w.index()] != FoldState::Active {
            continue;
        }
        let l = sched.lane_of(w);
        let act = active[l].take().expect("active qubit is on its lane");
        retire(act, l, &mut state, &iterations, &mut out);
    }

    // Final cleanup pass: gates whose every work operand is now classical.
    sweep(
        circuit,
        roles,
        &sched,
        k,
        &frontier,
        &mut transformed,
        &state,
        &answer_wires,
        &result_bits,
        &mut out,
    )?;

    emit_span.field("iterations", iterations.len());
    emit_span.field("instructions", out.len());
    drop(emit_span);

    let remaining = transformed.iter().filter(|&&t| !t).count();
    if remaining > 0 {
        return Err(DqcError::Incomplete { remaining });
    }

    let lane_wires: Vec<Qubit> = (0..k).map(Qubit::new).collect();
    let circuit_out = if options.peephole {
        let mut span = obs.span("transform.peephole");
        let before = out.len();
        // The lane wires' final states are discarded (each is either
        // measured or a spent ancilla); answer wires stay live for later
        // composition. Iterate the passes to a fixed point.
        let mut current = out;
        let cleaned = loop {
            let next = remove_dead_writes_assuming_discarded(
                &merge_conditioned_x_runs(&cancel_adjacent_inverses(&current)),
                &lane_wires,
            );
            if next.len() == current.len() {
                break next;
            }
            current = next;
        };
        span.field("before", before);
        span.field("after", cleaned.len());
        cleaned
    } else {
        out
    };

    obs.gauge_set("reuse.lanes", k as f64);
    let resets = circuit_out
        .iter()
        .filter(|i| matches!(i.kind(), OpKind::Reset))
        .count();
    obs.counter_add("reuse.resets_inserted", resets as u64);

    Ok(DynamicCircuit {
        circuit: circuit_out,
        answer_qubits: answer_wires,
        result_bits,
        iterations,
        lanes: k,
    })
}

/// One scheduling sweep: emits every currently-eligible untransformed gate,
/// in original circuit order, against the current qubit lifecycle `state`.
#[allow(clippy::too_many_arguments)]
fn sweep(
    circuit: &Circuit,
    roles: &QubitRoles,
    sched: &LaneSchedule,
    width: usize,
    frontier: &[Option<usize>],
    transformed: &mut [bool],
    state: &[FoldState],
    answer_wires: &[Qubit],
    result_bits: &[Clbit],
    out: &mut Circuit,
) -> Result<(), DqcError> {
    // Exact classical read: nothing after `idx` acts non-diagonally on
    // `q`, so the early measurement commutes with the rest of `q`'s gates.
    let sound_read = |idx: usize, q: Qubit| frontier[q.index()].is_none_or(|last| last <= idx);

    // Deferred gates and the wires on which they will still act quantumly.
    let mut deferred: Vec<(usize, Vec<Qubit>)> = Vec::new();

    'gates: for (idx, inst) in circuit.iter().enumerate() {
        if transformed[idx] {
            continue;
        }
        let OpKind::Gate(gate) = inst.kind() else {
            continue; // barriers, already marked
        };
        let qubits = inst.qubits();
        let n_ctrl = gate.num_controls();

        // Classify operands.
        let mut classical_controls: Vec<Qubit> = Vec::new();
        let mut eligible = true;
        for (k, &qb) in qubits.iter().enumerate() {
            match roles.role_of(qb) {
                Some(Role::Answer) => {}
                Some(role @ (Role::Data | Role::Ancilla)) => match state[qb.index()] {
                    FoldState::Active => {}
                    FoldState::Retired => {
                        if k < n_ctrl
                            && matches!(role, Role::Data)
                            && (width <= 1 || sound_read(idx, qb))
                        {
                            classical_controls.push(qb);
                        } else if k < n_ctrl && matches!(role, Role::Data) {
                            return Err(DqcError::Unrealizable {
                                what: inst.to_string(),
                                reason: "classical read of a control measured after \
                                         basis-changing gates is not exact (unsound \
                                         with concurrent lanes)"
                                    .into(),
                            });
                        } else {
                            return Err(DqcError::Unrealizable {
                                what: inst.to_string(),
                                reason: if matches!(role, Role::Ancilla) {
                                    "references an ancilla after its iteration \
                                     (ancillas are never measured)"
                                        .into()
                                } else {
                                    "targets a data qubit after its measurement".into()
                                },
                            });
                        }
                    }
                    FoldState::Pending => eligible = false,
                    FoldState::NonWork => unreachable!("work qubit state tracked"),
                },
                None => unreachable!("roles validated"),
            }
        }

        // Quantum wires of this gate if it were deferred: everything except
        // control reads that are certain to be classical by emission time.
        let quantum_wires_if_deferred: Vec<Qubit> = qubits
            .iter()
            .enumerate()
            .filter(|&(k, &qb)| {
                let work = !matches!(roles.role_of(qb), Some(Role::Answer));
                if !work {
                    return true; // answer wires always constrain order
                }
                let is_control = k < n_ctrl;
                let is_data = matches!(roles.role_of(qb), Some(Role::Data));
                if width <= 1 {
                    // Single lane: a data control will eventually be read
                    // classically; its wire constraint is released (the
                    // paper's approximation).
                    !(is_control && is_data)
                } else {
                    // Concurrent lanes: only release the constraint when
                    // the schedule guarantees the control retires before
                    // the gate's earliest emission step AND the early
                    // classical read is exact — otherwise the control stays
                    // a quantum ordering constraint.
                    !(is_control
                        && is_data
                        && sched.statically_classical(qb, qubits)
                        && sound_read(idx, qb))
                }
            })
            .map(|(_, &qb)| qb)
            .collect();

        if !eligible {
            deferred.push((idx, quantum_wires_if_deferred));
            continue;
        }

        // Commutation check against deferred gates' quantum wires.
        for (didx, blocked) in &deferred {
            let shares = qubits.iter().any(|q| blocked.contains(q));
            if !shares {
                continue;
            }
            let dinst = &circuit.instructions()[*didx];
            let dgate = dinst.as_gate().expect("deferred entries are gates");
            if !gates_commute(gate, qubits, dgate, dinst.qubits()) {
                deferred.push((idx, quantum_wires_if_deferred));
                continue 'gates;
            }
        }

        // Emit: drop classical controls, remap wires, attach condition.
        let reduced = reduce_controls(gate, classical_controls.len(), inst)?;
        let mut new_qubits = Vec::new();
        for (k, &qb) in qubits.iter().enumerate() {
            if k < n_ctrl && classical_controls.contains(&qb) {
                continue;
            }
            new_qubits.push(match roles.role_of(qb) {
                Some(Role::Answer) => answer_wires[roles.answer_index(qb).expect("answer indexed")],
                _ => Qubit::new(sched.lane_of(qb)),
            });
        }
        let mut emitted = if let Some(g) = reduced {
            Instruction::gate(g, new_qubits)
        } else {
            // Gate reduced away entirely (shouldn't happen: there is always
            // a target).
            unreachable!("gate reduction always leaves a target");
        };
        if !classical_controls.is_empty() {
            let bits: Vec<Clbit> = classical_controls
                .iter()
                .map(|&q| result_bits[roles.data_index(q).expect("data indexed")])
                .collect();
            let cond = if bits.len() == 1 {
                Condition::bit(bits[0])
            } else {
                let value = (1u64 << bits.len()) - 1;
                Condition::register(bits, value)
            };
            emitted = emitted.with_condition(cond);
        }
        out.push(emitted);
        transformed[idx] = true;
    }
    Ok(())
}

/// Removes `k` (classicalized) controls from a controlled gate.
fn reduce_controls(gate: &Gate, k: usize, inst: &Instruction) -> Result<Option<Gate>, DqcError> {
    if k == 0 {
        return Ok(Some(gate.clone()));
    }
    let reduced = match (gate, k) {
        (Gate::Cx, 1) => Gate::X,
        (Gate::Cy, 1) => Gate::Y,
        (Gate::Cz, 1) => Gate::Z,
        (Gate::Cp(t), 1) => Gate::P(*t),
        (Gate::Cv, 1) => Gate::V,
        (Gate::Cvdg, 1) => Gate::Vdg,
        (Gate::Ccx, 1) => Gate::Cx,
        (Gate::Ccx, 2) => Gate::X,
        (Gate::Ccz, 1) => Gate::Cz,
        (Gate::Ccz, 2) => Gate::Z,
        (Gate::Mcx(n), k) if *n >= k => match n - k {
            0 => Gate::X,
            1 => Gate::Cx,
            2 => Gate::Ccx,
            m => Gate::Mcx(m),
        },
        _ => {
            return Err(DqcError::Unrealizable {
                what: inst.to_string(),
                reason: format!("cannot classicalize {k} control(s) of gate {gate}"),
            })
        }
    };
    Ok(Some(reduced))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcir::CircuitStats;

    fn q(i: usize) -> Qubit {
        Qubit::new(i)
    }

    fn default_opts() -> TransformOptions {
        TransformOptions::default()
    }

    /// The paper's Fig. 3 BV circuit for hidden string 11 (2 data + answer).
    fn bv11() -> Circuit {
        let mut c = Circuit::new(3, 0);
        c.x(q(2)).h(q(2));
        c.h(q(0)).h(q(1));
        c.cx(q(0), q(2)).cx(q(1), q(2));
        c.h(q(0)).h(q(1));
        c
    }

    #[test]
    fn bv_transforms_to_two_qubits_two_iterations() {
        let roles = QubitRoles::data_plus_answer(3);
        let d = transform(&bv11(), &roles, &default_opts()).unwrap();
        assert_eq!(d.circuit().num_qubits(), 2);
        assert_eq!(d.circuit().num_clbits(), 2);
        assert_eq!(d.num_iterations(), 2);
        assert_eq!(d.lanes(), 1);
        assert!(d.iterations().iter().all(|i| i.measured));
        assert!(d.iterations().iter().all(|i| i.lane == 0));
        let stats = CircuitStats::of(d.circuit());
        assert_eq!(stats.reset_count, 1); // between the two iterations
        assert_eq!(stats.measure_count, 2);
        assert!(d.circuit().is_dynamic());
    }

    #[test]
    fn reset_options_control_reset_count() {
        let roles = QubitRoles::data_plus_answer(3);
        let opts = TransformOptions {
            reset_first_iteration: true,
            reset_answer_qubits: true,
            ..default_opts()
        };
        let d = transform(&bv11(), &roles, &opts).unwrap();
        // 2 iteration resets + 1 answer reset.
        assert_eq!(CircuitStats::of(d.circuit()).reset_count, 3);
    }

    #[test]
    fn barriers_separate_iterations_when_requested() {
        let roles = QubitRoles::data_plus_answer(3);
        let opts = TransformOptions {
            insert_barriers: true,
            peephole: false,
            ..default_opts()
        };
        let d = transform(&bv11(), &roles, &opts).unwrap();
        assert!(d.circuit().iter().any(|i| i.is_barrier()));
    }

    #[test]
    fn data_data_cx_becomes_classically_controlled_x() {
        // CX(d0, d1) with an answer present.
        let mut c = Circuit::new(3, 0);
        c.h(q(0)).cx(q(0), q(1)).cx(q(1), q(2));
        let roles = QubitRoles::data_plus_answer(3);
        let d = transform(&c, &roles, &default_opts()).unwrap();
        let conditioned: Vec<_> = d.circuit().iter().filter(|i| i.is_conditioned()).collect();
        assert_eq!(conditioned.len(), 1);
        assert_eq!(conditioned[0].as_gate(), Some(&Gate::X));
        assert_eq!(conditioned[0].qubits(), &[q(0)]); // physical data qubit
        assert_eq!(
            conditioned[0].condition(),
            Some(&Condition::bit(Clbit::new(0)))
        );
    }

    #[test]
    fn toffoli_with_two_data_controls_becomes_conditioned_cx() {
        // CCX(d0, d1, ans): in d1's iteration, d0 is classical.
        let mut c = Circuit::new(3, 0);
        c.ccx(q(0), q(1), q(2));
        let roles = QubitRoles::data_plus_answer(3);
        let d = transform(&c, &roles, &default_opts()).unwrap();
        let conditioned: Vec<_> = d.circuit().iter().filter(|i| i.is_conditioned()).collect();
        assert_eq!(conditioned.len(), 1);
        assert_eq!(conditioned[0].as_gate(), Some(&Gate::Cx));
    }

    #[test]
    fn answer_gates_emit_in_first_iteration() {
        let roles = QubitRoles::data_plus_answer(3);
        let d = transform(&bv11(), &roles, &default_opts()).unwrap();
        // First two instructions are the answer preparation X, H on wire 1.
        let insts = d.circuit().instructions();
        assert_eq!(insts[0].as_gate(), Some(&Gate::X));
        assert_eq!(insts[0].qubits(), &[q(1)]);
        assert_eq!(insts[1].as_gate(), Some(&Gate::H));
    }

    #[test]
    fn iteration_order_respects_case_two() {
        // CX(d1, d0): d1 must be iterated first.
        let mut c = Circuit::new(3, 0);
        c.cx(q(1), q(0)).cx(q(0), q(2));
        let roles = QubitRoles::data_plus_answer(3);
        let d = transform(&c, &roles, &default_opts()).unwrap();
        assert_eq!(d.iterations()[0].work_qubit, q(1));
        assert_eq!(d.iterations()[1].work_qubit, q(0));
        // Result bit of d0 is still clbit 0.
        let measures: Vec<_> = d
            .circuit()
            .iter()
            .filter(|i| matches!(i.kind(), OpKind::Measure))
            .collect();
        assert_eq!(measures[0].clbits_written()[0], Clbit::new(1)); // d1 first
        assert_eq!(measures[1].clbits_written()[0], Clbit::new(0));
    }

    #[test]
    fn ancilla_iterations_are_not_measured() {
        // CX(d0, anc), CV(anc, ans): ancilla used as control in its own
        // iteration.
        let mut c = Circuit::new(3, 0);
        c.cx(q(0), q(1)).cv(q(1), q(2));
        let roles = QubitRoles::new(vec![q(0)], vec![q(1)], vec![q(2)]);
        let d = transform(&c, &roles, &default_opts()).unwrap();
        assert_eq!(d.num_iterations(), 2);
        assert!(!d.iterations()[1].measured);
        assert_eq!(CircuitStats::of(d.circuit()).measure_count, 1);
    }

    #[test]
    fn cyclic_data_dependency_errors() {
        let mut c = Circuit::new(3, 0);
        c.cx(q(0), q(1)).cx(q(1), q(0));
        let roles = QubitRoles::data_plus_answer(3);
        assert!(matches!(
            transform(&c, &roles, &default_opts()),
            Err(DqcError::CyclicDependency { .. })
        ));
    }

    #[test]
    fn measurement_in_input_errors() {
        let mut c = Circuit::new(2, 1);
        c.measure(q(0), Clbit::new(0));
        let roles = QubitRoles::data_plus_answer(2);
        assert!(matches!(
            transform(&c, &roles, &default_opts()),
            Err(DqcError::Unrealizable { .. })
        ));
    }

    #[test]
    fn gate_controlled_by_spent_ancilla_errors() {
        let roles = QubitRoles::new(vec![q(0)], vec![q(1)], vec![q(2)]);

        // Valid ancilla use: data feeds the ancilla, the ancilla controls
        // the answer within its own iteration.
        let mut ok = Circuit::new(3, 0);
        ok.cx(q(0), q(1)).cv(q(1), q(2)).cx(q(0), q(2));
        assert!(transform(&ok, &roles, &default_opts()).is_ok());

        // Invalid: an ancilla *controlling a data qubit* can never be
        // classicalized — ancillas are not measured.
        let mut bad = Circuit::new(3, 0);
        bad.cx(q(1), q(0));
        let err = transform(&bad, &roles, &default_opts()).unwrap_err();
        assert!(matches!(err, DqcError::Unrealizable { .. }), "{err}");
    }

    #[test]
    fn conditioned_input_errors() {
        let mut c = Circuit::new(2, 1);
        c.x_if(q(0), Clbit::new(0));
        let roles = QubitRoles::data_plus_answer(2);
        assert!(transform(&c, &roles, &default_opts()).is_err());
    }

    #[test]
    fn hoisting_requires_commutation() {
        // CV(d1, ans) sits (deferred) before CV(d0, ans): hoisting the
        // latter is fine (they commute) ...
        let mut ok = Circuit::new(3, 0);
        ok.cv(q(1), q(2)).cv(q(0), q(2));
        let roles = QubitRoles::data_plus_answer(3);
        assert!(transform(&ok, &roles, &default_opts()).is_ok());

        // ... but an H(ans) between non-commuting neighbours must keep its
        // place: CV(d1,ans); H(ans); CV(d0,ans) — in d0's iteration both
        // CV(d1,·) and H are deferred, and CV(d0,·) does not commute with H,
        // so it is deferred too and finally emitted as a *conditioned* V in
        // d1's iteration... wait, its control is d0 which measures first.
        let mut tricky = Circuit::new(3, 0);
        tricky.cv(q(1), q(2)).h(q(2)).cv(q(0), q(2));
        let d = transform(&tricky, &roles, &default_opts()).unwrap();
        // CV(d0, ans) deferred past d0's iteration must come back as a
        // classically conditioned V on the answer wire.
        let conditioned: Vec<_> = d.circuit().iter().filter(|i| i.is_conditioned()).collect();
        assert_eq!(conditioned.len(), 1);
        assert_eq!(conditioned[0].as_gate(), Some(&Gate::V));
        assert_eq!(conditioned[0].qubits()[0], q(1)); // answer wire
    }

    #[test]
    fn multi_classical_controls_use_register_condition() {
        // MCX with three data controls and an answer target: the last data
        // iteration sees two classical controls.
        let mut c = Circuit::new(4, 0);
        c.mcx(&[q(0), q(1), q(2)], q(3));
        let roles = QubitRoles::data_plus_answer(4);
        let d = transform(&c, &roles, &default_opts()).unwrap();
        let conditioned: Vec<_> = d.circuit().iter().filter(|i| i.is_conditioned()).collect();
        assert_eq!(conditioned.len(), 1);
        assert_eq!(conditioned[0].as_gate(), Some(&Gate::Cx));
        match conditioned[0].condition().unwrap() {
            Condition::Register { bits, value } => {
                assert_eq!(bits.len(), 2);
                assert_eq!(*value, 0b11);
            }
            other => panic!("expected register condition, got {other:?}"),
        }
    }

    #[test]
    fn peephole_removes_dead_uncompute_on_final_ancilla() {
        // Simulate a dynamic-2-style tail: build ancilla, use it, uncompute.
        let mut c = Circuit::new(4, 0);
        c.cx(q(0), q(3))
            .cx(q(1), q(3))
            .cv(q(3), q(2))
            .cx(q(1), q(3))
            .cx(q(0), q(3));
        let roles = QubitRoles::new(vec![q(0), q(1)], vec![q(3)], vec![q(2)]);
        let d = transform(&c, &roles, &default_opts()).unwrap();
        // Uncompute X^c pairs after the CV are dead (ancilla discarded).
        let conditioned = d.circuit().iter().filter(|i| i.is_conditioned()).count();
        assert_eq!(conditioned, 2, "{}", d.circuit());
    }

    #[test]
    fn iteration_slices_partition_the_instruction_stream() {
        let roles = QubitRoles::data_plus_answer(3);
        let d = transform(&bv11(), &roles, &default_opts()).unwrap();
        let slices = d.iteration_slices();
        assert_eq!(slices.len(), d.num_iterations());
        let total: usize = slices.iter().map(|s| s.len()).sum();
        assert_eq!(total, d.circuit().len());
        // Each data iteration ends with its measurement.
        for (slice, info) in slices.iter().zip(d.iterations()) {
            if info.measured {
                assert!(matches!(slice.last().unwrap().kind(), OpKind::Measure));
            }
        }
        // Every slice after the first starts with the separating reset.
        for slice in &slices[1..] {
            assert!(matches!(slice[0].kind(), OpKind::Reset));
        }
    }

    #[test]
    fn iteration_slices_respect_leading_reset_option() {
        let roles = QubitRoles::data_plus_answer(3);
        let opts = TransformOptions {
            reset_first_iteration: true,
            ..default_opts()
        };
        let d = transform(&bv11(), &roles, &opts).unwrap();
        assert_eq!(d.iteration_slices().len(), d.num_iterations());
    }

    #[test]
    fn transform_of_empty_circuit_produces_empty_iterations() {
        let c = Circuit::new(3, 0);
        let roles = QubitRoles::data_plus_answer(3);
        let d = transform(&c, &roles, &default_opts()).unwrap();
        assert_eq!(d.num_iterations(), 2);
        // Each data iteration still measures (the paper's empty iterations).
        assert_eq!(CircuitStats::of(d.circuit()).measure_count, 2);
    }

    // ---- k-lane plans -----------------------------------------------------

    #[test]
    fn full_width_plan_reproduces_the_input_gates() {
        let roles = QubitRoles::data_plus_answer(3);
        let opts = TransformOptions {
            peephole: false,
            ..default_opts()
        };
        let d = transform_with_plan(&bv11(), &roles, &ReusePlan::full_width(), &opts).unwrap();
        assert_eq!(d.lanes(), 2);
        assert_eq!(d.circuit().num_qubits(), 3);
        // No resets, no conditioning: the input gates plus final measures.
        let stats = CircuitStats::of(d.circuit());
        assert_eq!(stats.reset_count, 0);
        assert_eq!(stats.conditioned_count, 0);
        assert_eq!(stats.measure_count, 2);
        let gates: Vec<_> = d
            .circuit()
            .iter()
            .filter_map(|i| i.as_gate().cloned())
            .collect();
        let original: Vec<_> = bv11().iter().filter_map(|i| i.as_gate().cloned()).collect();
        assert_eq!(gates, original);
    }

    #[test]
    fn single_lane_and_plan_free_transform_agree() {
        let roles = QubitRoles::data_plus_answer(3);
        let a = transform(&bv11(), &roles, &default_opts()).unwrap();
        let b = transform_with_plan(&bv11(), &roles, &ReusePlan::single_lane(), &default_opts())
            .unwrap();
        assert_eq!(a.circuit().instructions(), b.circuit().instructions());
        assert_eq!(a.iterations(), b.iterations());
    }

    #[test]
    fn two_lane_plan_keeps_data_data_interaction_quantum() {
        // CX(d0, d1) on separate lanes stays a quantum CX between wires.
        let mut c = Circuit::new(3, 0);
        c.h(q(0)).cx(q(0), q(1)).cx(q(1), q(2));
        let roles = QubitRoles::data_plus_answer(3);
        let plan = ReusePlan::from_lanes(vec![vec![q(0)], vec![q(1)]]);
        let d = transform_with_plan(&c, &roles, &plan, &default_opts()).unwrap();
        assert_eq!(d.lanes(), 2);
        let stats = CircuitStats::of(d.circuit());
        assert_eq!(stats.conditioned_count, 0);
        assert_eq!(stats.reset_count, 0);
        assert_eq!(stats.measure_count, 2);
        assert!(d
            .circuit()
            .iter()
            .any(|i| i.as_gate() == Some(&Gate::Cx) && i.qubits() == [q(0), q(1)]));
    }

    #[test]
    fn invalid_plan_is_rejected() {
        let roles = QubitRoles::data_plus_answer(3);
        // Lane order violates the iteration (register) order.
        let plan = ReusePlan::from_lanes(vec![vec![q(1)], vec![q(0)]]);
        assert!(matches!(
            transform_with_plan(&bv11(), &roles, &plan, &default_opts()),
            Err(DqcError::InvalidPlan { .. })
        ));
    }

    #[test]
    fn lane_slices_track_each_lane_replay() {
        // 4 work qubits on 2 lanes: 2 replays per lane.
        let mut c = Circuit::new(5, 0);
        for d in 0..4 {
            c.h(q(d)).cx(q(d), q(4));
        }
        let roles = QubitRoles::data_plus_answer(5);
        let plan = ReusePlan::from_lanes(vec![vec![q(0), q(2)], vec![q(1), q(3)]]);
        let d = transform_with_plan(&c, &roles, &plan, &default_opts()).unwrap();
        assert_eq!(d.lanes(), 2);
        assert_eq!(d.num_iterations(), 4);
        assert_eq!(d.lane_slices(0).len(), 2);
        assert_eq!(d.lane_slices(1).len(), 2);
        // Lane assignment matches the plan.
        let lanes_of: Vec<usize> = d.iterations().iter().map(|i| i.lane).collect();
        let members: Vec<Qubit> = d.iterations().iter().map(|i| i.work_qubit).collect();
        assert_eq!(members, vec![q(0), q(1), q(2), q(3)]);
        assert_eq!(lanes_of, vec![0, 1, 0, 1]);
        // Width is 2 lanes + 1 answer; all four data qubits measured.
        assert_eq!(d.circuit().num_qubits(), 3);
        assert_eq!(CircuitStats::of(d.circuit()).measure_count, 4);
    }

    #[test]
    fn unsound_classical_read_is_rejected_for_concurrent_lanes() {
        // CX(d0, d1) followed by H(d0): reading d0 classically is the
        // paper's approximation — the measurement lands after the H. The
        // single-lane scheme accepts it; a multi-lane plan that would need
        // the same read must be rejected (it is not exact).
        let mut c = Circuit::new(4, 0);
        c.h(q(0)).cx(q(0), q(1)).h(q(0)).cx(q(1), q(3)).h(q(2));
        let roles = QubitRoles::data_plus_answer(4);
        assert!(
            transform(&c, &roles, &default_opts()).is_ok(),
            "single lane keeps the paper's approximation"
        );
        // Lanes [[d0, d1], [d2]]: d0 retires when d1 activates, so
        // CX(d0, d1) needs the classical read — unsound, H(d0) follows.
        let plan = ReusePlan::from_lanes(vec![vec![q(0), q(1)], vec![q(2)]]);
        let err = transform_with_plan(&c, &roles, &plan, &default_opts()).unwrap_err();
        assert!(matches!(err, DqcError::Unrealizable { .. }), "{err}");
    }
}
