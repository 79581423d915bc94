//! One-stop pipeline: transform, mitigate, verify and account in a single
//! call.
//!
//! [`Pipeline`] bundles the scheme choice, reuse planning, the mitigation
//! rewrite and verification into the call shape most users want: give it a
//! traditional circuit and a role partition, get back the dynamic circuit
//! together with its hardened form, its equivalence report and its resource
//! comparison. `dqct` and `dqctd` both lower their jobs through it.

use crate::cost::{CostModel, ResourceSummary};
use crate::error::DqcError;
use crate::mitigate::{mitigate_observed, MitigatedCircuit, MitigationOptions};
use crate::reuse::{plan_with_scheme_observed, ReuseMode, ReuseReport};
use crate::roles::QubitRoles;
use crate::scheme::{transform_with_scheme_observed, DynamicScheme};
use crate::transform::{DynamicCircuit, TransformOptions};
use crate::verify::{self, EquivalenceReport};
use qcir::Circuit;
use qobs::{LocalTrace, Observer, Tracer};
use std::fmt;

/// A configured transform-mitigate-verify-account pipeline.
///
/// Its six settings are the scheme, reuse planning, the mitigation
/// rewrite, the exact check, the observer and the tracer. Transformation
/// always uses [`TransformOptions::default`] and reuse planning
/// [`CostModel::default`], the only values any caller sets.
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
/// let report = result.report.as_ref().expect("verification is on by default");
/// assert!(report.equivalent(1e-10));
/// assert_eq!(result.dynamic.circuit().num_qubits(), 2);
/// # Ok::<(), dqc::DqcError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Pipeline {
    scheme: DynamicScheme,
    reuse: Option<ReuseMode>,
    mitigate: MitigationOptions,
    verify: bool,
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
    /// scheme), no reuse planning, no mitigation, and the exact
    /// equivalence check switched on.
    #[must_use]
    pub fn new() -> Self {
        Self {
            scheme: DynamicScheme::Dynamic2,
            reuse: None,
            mitigate: MitigationOptions::none(),
            verify: true,
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

    /// Selects the Toffoli realization scheme.
    #[must_use]
    pub fn scheme(mut self, scheme: DynamicScheme) -> Self {
        self.scheme = scheme;
        self
    }

    /// Hardens the transformed circuit with the rewrite passes in
    /// `options` (verified resets, measurement repetition; see
    /// [`mitigate`](crate::mitigate())). The rewrite runs inside the
    /// transform stage and fills [`PipelineResult::mitigated`]; readout
    /// calibration post-processes counts, so options selecting only
    /// `readout_cal` leave it `None`.
    #[must_use]
    pub fn mitigate(mut self, options: MitigationOptions) -> Self {
        self.mitigate = options;
        self
    }

    /// Switches the exact equivalence check on (the default) or off. Off,
    /// [`PipelineResult::report`] is `None` and no verify span or phase is
    /// recorded.
    #[must_use]
    pub fn verify(mut self, yes: bool) -> Self {
        self.verify = yes;
        self
    }

    /// Attaches a metrics handle: every stage of [`Pipeline::run`] records
    /// a span (`pipeline.transform`, `pipeline.verify`, `pipeline.account`)
    /// into its registry's `<span>_ns` histograms, the transformation
    /// records its finer-grained spans (see [`crate::transform_observed`]),
    /// and each run adds to `pipeline.runs` and, when it verified, sets
    /// `pipeline.last_tvd`.
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
    /// [`transform_with_scheme`](crate::transform_with_scheme) or, with
    /// [`Pipeline::reuse`], of [`plan_with_scheme`](crate::plan_with_scheme).
    pub fn run(&self, circuit: &Circuit, roles: &QubitRoles) -> Result<PipelineResult, DqcError> {
        circuit
            .validate()
            .map_err(|source| DqcError::InvalidCircuit { source })?;
        let obs = &self.observer;
        let mut phases = self.tracer.top_local();
        let (dynamic, reuse, mitigated) = self.stage(&mut phases, "pipeline.transform", || {
            let options = TransformOptions::default();
            let (dynamic, reuse) = match self.reuse {
                Some(mode) => {
                    let cost = CostModel::default();
                    let (dynamic, report) = plan_with_scheme_observed(
                        circuit,
                        roles,
                        self.scheme,
                        mode,
                        &cost,
                        &options,
                        obs,
                    )?;
                    (dynamic, Some(report))
                }
                None => (
                    transform_with_scheme_observed(circuit, roles, self.scheme, &options, obs)?,
                    None,
                ),
            };
            // Verified resets and repeated measurements widen the classical
            // register; readout calibration is counts post-processing only.
            let rewrites =
                self.mitigate.reset_verify.is_some() || self.mitigate.meas_repeat.is_some();
            let mitigated =
                rewrites.then(|| mitigate_observed(dynamic.circuit(), &self.mitigate, obs));
            Ok::<_, DqcError>((dynamic, reuse, mitigated))
        })?;
        let report = self.verify.then(|| {
            self.stage(&mut phases, "pipeline.verify", || {
                verify::compare_observed(circuit, roles, &dynamic, obs)
            })
        });
        let (traditional, resources) = self.stage(&mut phases, "pipeline.account", || {
            (
                ResourceSummary::of_circuit(circuit),
                ResourceSummary::of_dynamic(&dynamic),
            )
        });
        if let Some(t) = phases {
            self.tracer.submit(t.into_events());
        }
        obs.counter_add("pipeline.runs", 1);
        if let Some(report) = &report {
            obs.gauge_set("pipeline.last_tvd", report.tvd);
        }
        Ok(PipelineResult {
            scheme: self.scheme,
            dynamic,
            mitigated,
            report,
            traditional,
            resources,
            reuse,
        })
    }

    /// Runs one stage inside an observer span and a trace phase, both
    /// named `name`.
    fn stage<T>(
        &self,
        phases: &mut Option<LocalTrace>,
        name: &'static str,
        body: impl FnOnce() -> T,
    ) -> T {
        let _span = self.observer.span(name);
        if let Some(t) = phases.as_mut() {
            t.begin(name);
        }
        let out = body();
        if let Some(t) = phases.as_mut() {
            t.end();
        }
        out
    }
}

/// Everything a pipeline run produces.
#[derive(Debug, Clone)]
pub struct PipelineResult {
    /// The scheme that was used.
    pub scheme: DynamicScheme,
    /// The dynamic realization.
    pub dynamic: DynamicCircuit,
    /// The dynamic circuit hardened by [`Pipeline::mitigate`]'s rewrite
    /// passes; `None` when no rewrite pass was selected.
    pub mitigated: Option<MitigatedCircuit>,
    /// Exact equivalence report against the traditional circuit; `None`
    /// when [`Pipeline::verify`] switched the check off.
    pub report: Option<EquivalenceReport>,
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
            "{}: {} -> {} qubits, depth x{:.2}, {} iterations",
            self.scheme,
            self.traditional.qubits,
            self.resources.qubits,
            self.depth_overhead(),
            self.resources.iterations.unwrap_or(0),
        )?;
        if let Some(report) = &self.report {
            write!(f, ", tvd {:.4}", report.tvd)?;
        }
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
        assert!(result.report.as_ref().unwrap().equivalent(1e-10));
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
        assert!(d1.report.unwrap().tvd > 0.2);
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
        assert!(result.report.as_ref().unwrap().equivalent(1e-10));
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
        assert!(result.report.as_ref().unwrap().equivalent(1e-10));
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
    fn mitigate_stage_hardens_the_dynamic_circuit() {
        let roles = QubitRoles::data_plus_answer(3);
        let options = MitigationOptions::parse("reset-verify,meas-repeat=3").unwrap();
        let result = Pipeline::new()
            .mitigate(options.clone())
            .run(&dj_and(), &roles)
            .unwrap();
        let mitigated = result.mitigated.as_ref().expect("rewrite passes selected");
        assert_eq!(
            qcir::qasm::to_qasm(mitigated.circuit()),
            qcir::qasm::to_qasm(crate::mitigate(result.dynamic.circuit(), &options).circuit())
        );
        assert!(mitigated.circuit().num_clbits() > result.dynamic.circuit().num_clbits());
        // Readout calibration post-processes counts: nothing to rewrite.
        let readout_only = MitigationOptions::parse("readout-cal").unwrap();
        for pipeline in [Pipeline::new().mitigate(readout_only), Pipeline::new()] {
            assert!(pipeline.run(&dj_and(), &roles).unwrap().mitigated.is_none());
        }
    }

    #[test]
    fn verify_off_skips_the_check_and_its_records() {
        let obs = Observer::metrics_only();
        let tracer = Tracer::test();
        let result = Pipeline::new()
            .verify(false)
            .observer(obs.clone())
            .tracer(tracer.clone())
            .run(&dj_and(), &QubitRoles::data_plus_answer(3))
            .unwrap();
        assert!(result.report.is_none());
        assert!(!result.to_string().contains("tvd"), "{result}");
        let metrics = obs.metrics();
        for name in ["verify.equivalence_ns", "pipeline.verify_ns"] {
            assert!(metrics.histogram(name).is_none(), "{name}");
        }
        assert_eq!(metrics.gauge("pipeline.last_tvd"), None);
        assert_eq!(metrics.counter("pipeline.runs"), Some(1));
        let begins: Vec<&str> = tracer
            .events()
            .iter()
            .filter_map(|e| match e {
                qobs::TraceEvent::Begin { name, .. } => Some(*name),
                _ => None,
            })
            .collect();
        assert_eq!(begins, ["pipeline.transform", "pipeline.account"]);
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
    fn observer_records_stage_spans() {
        let obs = Observer::metrics_only();
        Pipeline::new()
            .observer(obs.clone())
            .run(&dj_and(), &QubitRoles::data_plus_answer(3))
            .unwrap();
        // One closed span, so one timing observation, per stage.
        for stage in [
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
            let h = obs.metrics().histogram(&format!("{stage}_ns"));
            assert_eq!(h.map(|h| h.count), Some(1), "{stage}");
        }
        assert_eq!(obs.metrics().counter("pipeline.runs"), Some(1));
        assert!(obs.metrics().gauge("pipeline.last_tvd").is_some());
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
