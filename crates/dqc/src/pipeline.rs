//! One-stop pipeline: transform, verify and account in a single call.
//!
//! [`Pipeline`] bundles the scheme choice, transformation options and
//! verification into the call shape most users want: give it a traditional
//! circuit and a role partition, get back the dynamic circuit together with
//! its equivalence report and resource comparison.

use crate::cost::{CostModel, ResourceSummary};
use crate::error::DqcError;
use crate::reuse::{plan_with_scheme_observed, ReuseMode, ReuseReport};
use crate::roles::QubitRoles;
use crate::scheme::{transform_with_scheme_observed, DynamicScheme};
use crate::transform::{DynamicCircuit, TransformOptions};
use crate::verify::{self, EquivalenceReport};
use qcir::Circuit;
use qobs::{Observer, Tracer};
use std::fmt;

/// A configured transform-verify-account pipeline.
///
/// # Examples
///
/// ```
/// use dqc::{Pipeline, DynamicScheme, QubitRoles};
/// use qcir::{Circuit, Qubit};
///
/// let q = Qubit::new;
/// let mut circ = Circuit::new(3, 0);
/// circ.x(q(2)).h(q(2));
/// circ.h(q(0)).h(q(1));
/// circ.ccx(q(0), q(1), q(2));
/// circ.h(q(0)).h(q(1));
///
/// let result = Pipeline::new()
///     .scheme(DynamicScheme::Dynamic2)
///     .run(&circ, &QubitRoles::data_plus_answer(3))?;
/// assert!(result.report.equivalent(1e-10));
/// assert_eq!(result.dynamic.circuit().num_qubits(), 2);
/// # Ok::<(), dqc::DqcError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Pipeline {
    scheme: DynamicScheme,
    options: TransformOptions,
    compare_answers: bool,
    reuse: Option<ReuseMode>,
    cost: CostModel,
    observer: Observer,
    tracer: Tracer,
}

impl Default for Pipeline {
    fn default() -> Self {
        Self::new()
    }
}

impl Pipeline {
    /// A pipeline using [`DynamicScheme::Dynamic2`] (the paper's accurate
    /// scheme) and default options.
    #[must_use]
    pub fn new() -> Self {
        Self {
            scheme: DynamicScheme::Dynamic2,
            options: TransformOptions::default(),
            compare_answers: false,
            reuse: None,
            cost: CostModel::default(),
            observer: Observer::disabled(),
            tracer: Tracer::disabled(),
        }
    }

    /// Enables reuse planning: instead of the fixed single-data-qubit
    /// scheme, the planner searches lane plans per [`ReuseMode`] (a fixed
    /// width, `off` for no reuse, or `auto` for the best cost-model score)
    /// and the run's [`PipelineResult::reuse`] reports the selection.
    /// Without this call the paper's `k = 1` path runs unchanged.
    #[must_use]
    pub fn reuse(mut self, mode: ReuseMode) -> Self {
        self.reuse = Some(mode);
        self
    }

    /// Overrides the cost model scoring reuse plans (only consulted when
    /// [`Pipeline::reuse`] is set).
    #[must_use]
    pub fn cost_model(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Selects the Toffoli realization scheme.
    #[must_use]
    pub fn scheme(mut self, scheme: DynamicScheme) -> Self {
        self.scheme = scheme;
        self
    }

    /// Overrides the transformation options.
    #[must_use]
    pub fn options(mut self, options: TransformOptions) -> Self {
        self.options = options;
        self
    }

    /// Also measures the answer qubits when verifying (for algorithms whose
    /// output lives on answer qubits).
    #[must_use]
    pub fn compare_answers(mut self, yes: bool) -> Self {
        self.compare_answers = yes;
        self
    }

    /// Attaches an observability handle: every stage of
    /// [`Pipeline::run`] records a span (`pipeline.transform`,
    /// `pipeline.verify`, `pipeline.account`) into its metrics registry,
    /// and the transformation itself emits its finer-grained spans and
    /// events (see [`crate::transform_observed`]).
    ///
    /// The default is [`Observer::disabled`], under which every
    /// instrumentation call is a no-op branch.
    #[must_use]
    pub fn observer(mut self, observer: Observer) -> Self {
        self.observer = observer;
        self
    }

    /// Attaches a tracing handle: every stage of [`Pipeline::run`] records
    /// a phase span (`pipeline.transform`, `pipeline.verify`,
    /// `pipeline.account`) on the trace's top-level lane, alongside the
    /// observer's metric spans. Simulation phases traced by downstream
    /// callers (e.g. `qsim::Executor::tracer`) share the same tracer, so
    /// one Chrome export shows the full transform→verify→simulate
    /// timeline. The default [`Tracer::disabled`] costs one branch per
    /// stage.
    #[must_use]
    pub fn tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Runs the pipeline.
    ///
    /// # Errors
    ///
    /// Returns [`DqcError::InvalidCircuit`] when the input fails
    /// [`Circuit::validate`] (the pipeline is an ingestion boundary for
    /// untrusted QASM), and otherwise propagates every error of
    /// [`transform_with_scheme`](crate::transform_with_scheme).
    pub fn run(&self, circuit: &Circuit, roles: &QubitRoles) -> Result<PipelineResult, DqcError> {
        circuit
            .validate()
            .map_err(|source| DqcError::InvalidCircuit { source })?;
        let obs = &self.observer;
        let mut phases = self.tracer.top_local();
        let (dynamic, reuse) = {
            let mut span = obs.span("pipeline.transform");
            span.field("scheme", self.scheme.to_string());
            span.field("qubits", circuit.num_qubits());
            span.field("instructions", circuit.len());
            if let Some(mode) = self.reuse {
                span.field("reuse", mode.to_string());
            }
            if let Some(t) = phases.as_mut() {
                t.begin("pipeline.transform");
            }
            let outcome = match self.reuse {
                Some(mode) => plan_with_scheme_observed(
                    circuit,
                    roles,
                    self.scheme,
                    mode,
                    &self.cost,
                    &self.options,
                    obs,
                )
                .map(|(d, r)| (d, Some(r))),
                None => {
                    transform_with_scheme_observed(circuit, roles, self.scheme, &self.options, obs)
                        .map(|d| (d, None))
                }
            };
            if let Some(t) = phases.as_mut() {
                t.end();
            }
            outcome?
        };
        let report = {
            let _span = obs.span("pipeline.verify");
            if let Some(t) = phases.as_mut() {
                t.begin("pipeline.verify");
            }
            let report = if self.compare_answers {
                verify::compare_with_answers_observed(circuit, roles, &dynamic, obs)
            } else {
                verify::compare_observed(circuit, roles, &dynamic, obs)
            };
            if let Some(t) = phases.as_mut() {
                t.end();
            }
            report
        };
        let (traditional, resources) = {
            let _span = obs.span("pipeline.account");
            if let Some(t) = phases.as_mut() {
                t.begin("pipeline.account");
            }
            let summaries = (
                ResourceSummary::of_circuit(circuit),
                ResourceSummary::of_dynamic(&dynamic),
            );
            if let Some(t) = phases.as_mut() {
                t.end();
            }
            summaries
        };
        if let Some(t) = phases {
            self.tracer.submit(t.into_events());
        }
        obs.counter_add("pipeline.runs", 1);
        obs.gauge_set("pipeline.last_tvd", report.tvd);
        obs.event(
            "pipeline.result",
            &[
                ("scheme", self.scheme.to_string().into()),
                ("iterations", dynamic.num_iterations().into()),
                (
                    "qubit_saving",
                    traditional.qubits.saturating_sub(resources.qubits).into(),
                ),
                ("tvd", report.tvd.into()),
            ],
        );
        Ok(PipelineResult {
            scheme: self.scheme,
            dynamic,
            report,
            traditional,
            resources,
            reuse,
        })
    }
}

/// Everything a pipeline run produces.
#[derive(Debug, Clone)]
pub struct PipelineResult {
    /// The scheme that was used.
    pub scheme: DynamicScheme,
    /// The dynamic realization.
    pub dynamic: DynamicCircuit,
    /// Exact equivalence report against the traditional circuit.
    pub report: EquivalenceReport,
    /// Resource summary of the traditional circuit.
    pub traditional: ResourceSummary,
    /// Resource summary of the dynamic circuit.
    pub resources: ResourceSummary,
    /// The reuse planner's report, when [`Pipeline::reuse`] was set.
    pub reuse: Option<ReuseReport>,
}

impl PipelineResult {
    /// Qubits saved by the dynamic realization.
    #[must_use]
    pub fn qubit_saving(&self) -> usize {
        self.traditional
            .qubits
            .saturating_sub(self.resources.qubits)
    }

    /// Depth overhead factor of the dynamic realization.
    #[must_use]
    pub fn depth_overhead(&self) -> f64 {
        self.resources.depth as f64 / self.traditional.depth.max(1) as f64
    }
}

impl fmt::Display for PipelineResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} -> {} qubits, depth x{:.2}, {} iterations, tvd {:.4}",
            self.scheme,
            self.traditional.qubits,
            self.resources.qubits,
            self.depth_overhead(),
            self.resources.iterations.unwrap_or(0),
            self.report.tvd
        )?;
        if let Some(reuse) = &self.reuse {
            write!(f, ", reuse[{reuse}]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcir::Qubit;

    fn q(i: usize) -> Qubit {
        Qubit::new(i)
    }

    fn dj_and() -> Circuit {
        let mut c = Circuit::new(3, 0);
        c.x(q(2)).h(q(2));
        c.h(q(0)).h(q(1));
        c.ccx(q(0), q(1), q(2));
        c.h(q(0)).h(q(1));
        c
    }

    #[test]
    fn default_pipeline_uses_dynamic2() {
        let result = Pipeline::new()
            .run(&dj_and(), &QubitRoles::data_plus_answer(3))
            .unwrap();
        assert_eq!(result.scheme, DynamicScheme::Dynamic2);
        assert!(result.report.equivalent(1e-10));
        assert_eq!(result.qubit_saving(), 1);
        assert!(result.depth_overhead() > 1.0);
    }

    #[test]
    fn scheme_override_changes_accuracy() {
        let roles = QubitRoles::data_plus_answer(3);
        let d1 = Pipeline::new()
            .scheme(DynamicScheme::Dynamic1)
            .run(&dj_and(), &roles)
            .unwrap();
        assert!(d1.report.tvd > 0.2);
    }

    #[test]
    fn options_are_forwarded() {
        let roles = QubitRoles::data_plus_answer(3);
        let result = Pipeline::new()
            .options(TransformOptions {
                reset_first_iteration: true,
                ..TransformOptions::default()
            })
            .run(&dj_and(), &roles)
            .unwrap();
        assert_eq!(result.resources.resets, 3); // 3 iterations, all reset
    }

    #[test]
    fn reuse_auto_reports_the_selected_width() {
        let roles = QubitRoles::data_plus_answer(3);
        let result = Pipeline::new()
            .reuse(ReuseMode::Auto)
            .run(&dj_and(), &roles)
            .unwrap();
        let reuse = result.reuse.as_ref().expect("reuse mode was set");
        assert_eq!(reuse.mode, ReuseMode::Auto);
        assert_eq!(result.dynamic.lanes(), reuse.k);
        assert!(result.report.equivalent(1e-10));
        assert!(result.to_string().contains("reuse["));
    }

    #[test]
    fn reuse_off_reproduces_the_traditional_width() {
        let roles = QubitRoles::data_plus_answer(3);
        let result = Pipeline::new()
            .reuse(ReuseMode::Off)
            .run(&dj_and(), &roles)
            .unwrap();
        let reuse = result.reuse.as_ref().expect("reuse mode was set");
        // Dynamic-2 lowering adds one shared ancilla: 2 data + ancilla.
        assert_eq!(reuse.k, 3);
        assert_eq!(result.qubit_saving(), 0);
        assert!(result.report.equivalent(1e-10));
    }

    #[test]
    fn reuse_width_one_matches_the_legacy_path() {
        let roles = QubitRoles::data_plus_answer(3);
        let legacy = Pipeline::new().run(&dj_and(), &roles).unwrap();
        let planned = Pipeline::new()
            .reuse(ReuseMode::Width(1))
            .run(&dj_and(), &roles)
            .unwrap();
        assert!(legacy.reuse.is_none());
        assert_eq!(
            qcir::qasm::to_qasm(planned.dynamic.circuit()),
            qcir::qasm::to_qasm(legacy.dynamic.circuit())
        );
    }

    #[test]
    fn reuse_infeasible_width_errors() {
        let roles = QubitRoles::data_plus_answer(3);
        let err = Pipeline::new()
            .reuse(ReuseMode::Width(7))
            .run(&dj_and(), &roles)
            .unwrap_err();
        assert!(matches!(err, DqcError::InvalidPlan { .. }), "{err}");
    }

    #[test]
    fn answer_comparison_extends_keys() {
        let roles = QubitRoles::data_plus_answer(3);
        let result = Pipeline::new()
            .compare_answers(true)
            .run(&dj_and(), &roles)
            .unwrap();
        assert_eq!(result.report.expected_outcome.len(), 3);
    }

    #[test]
    fn malformed_circuit_is_rejected_with_a_typed_error() {
        // A condition with bypassed smart-constructor invariants used to
        // reach the transform/simulator and panic; the pipeline's validate
        // pass now rejects it up front.
        use qcir::{Condition, Gate, Instruction};
        let mut bad = dj_and();
        bad.push(
            Instruction::gate(Gate::X, vec![q(0)]).with_condition(Condition::Register {
                bits: vec![],
                value: 0,
            }),
        );
        let err = Pipeline::new()
            .run(&bad, &QubitRoles::data_plus_answer(3))
            .unwrap_err();
        assert!(matches!(err, DqcError::InvalidCircuit { .. }), "{err}");
        assert!(err.to_string().starts_with("invalid input circuit:"));
    }

    #[test]
    fn errors_propagate() {
        let mut cyclic = Circuit::new(3, 0);
        cyclic.cx(q(0), q(1)).cx(q(1), q(0));
        let err = Pipeline::new()
            .run(&cyclic, &QubitRoles::data_plus_answer(3))
            .unwrap_err();
        assert!(matches!(err, DqcError::CyclicDependency { .. }));
    }

    #[test]
    fn observer_records_stage_spans_and_events() {
        let sink = std::sync::Arc::new(qobs::CollectingSink::new());
        let obs = Observer::with_sink(sink.clone());
        Pipeline::new()
            .observer(obs.clone())
            .run(&dj_and(), &QubitRoles::data_plus_answer(3))
            .unwrap();
        let names = sink.span_names();
        for expected in [
            "transform.lower",
            "transform.roles",
            "transform.reorder",
            "transform.emit",
            "transform.peephole",
            "verify.equivalence",
            "pipeline.transform",
            "pipeline.verify",
            "pipeline.account",
        ] {
            assert!(names.contains(&expected.to_string()), "missing {expected}");
        }
        // Per-stage timing histograms exist.
        for h in ["pipeline.transform_ns", "verify.equivalence_ns"] {
            assert_eq!(obs.metrics().histogram(h).unwrap().count, 1, "{h}");
        }
        assert_eq!(obs.metrics().counter("pipeline.runs"), Some(1));
        // One transform.iteration event per iteration (dynamic-2 on one
        // Toffoli: 2 data + 1 shared ancilla = 3).
        let iteration_events = sink
            .events()
            .iter()
            .filter(|e| e.name == "transform.iteration")
            .count();
        assert_eq!(iteration_events, 3);
    }

    #[test]
    fn tracer_records_phase_spans_on_the_top_lane() {
        let tracer = Tracer::test();
        Pipeline::new()
            .tracer(tracer.clone())
            .run(&dj_and(), &QubitRoles::data_plus_answer(3))
            .unwrap();
        let begins: Vec<&str> = tracer
            .events()
            .iter()
            .filter_map(|e| match e {
                qobs::TraceEvent::Begin { name, tid, .. } => {
                    assert_eq!(*tid, qobs::trace::TOP_TID);
                    Some(*name)
                }
                _ => None,
            })
            .collect();
        assert_eq!(
            begins,
            vec!["pipeline.transform", "pipeline.verify", "pipeline.account"]
        );
        let json = tracer.export_chrome();
        assert!(qobs::json::validate(&json).is_ok(), "{json}");
        // Deterministic: a second identical run on a fresh tracer exports
        // byte-identical JSON under the test clock.
        let tracer2 = Tracer::test();
        Pipeline::new()
            .tracer(tracer2.clone())
            .run(&dj_and(), &QubitRoles::data_plus_answer(3))
            .unwrap();
        assert_eq!(json, tracer2.export_chrome());
    }

    #[test]
    fn disabled_observer_leaves_registry_empty() {
        let obs = Observer::disabled();
        Pipeline::new()
            .observer(obs.clone())
            .run(&dj_and(), &QubitRoles::data_plus_answer(3))
            .unwrap();
        assert!(obs.metrics().is_empty());
    }

    #[test]
    fn display_summarizes() {
        let result = Pipeline::new()
            .run(&dj_and(), &QubitRoles::data_plus_answer(3))
            .unwrap();
        let text = result.to_string();
        assert!(text.contains("dynamic-2"));
        assert!(text.contains("tvd"));
    }
}
