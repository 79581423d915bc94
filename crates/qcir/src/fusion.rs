//! Gate fusion: lowering runs of adjacent small gates to single unitaries.
//!
//! The shot executor's dominant cost on the paper's circuits is the gate
//! loop: each 1q/2q gate sweeps the full amplitude vector. Runs of adjacent
//! *unconditioned* gates whose combined support stays within two qubits can
//! instead be multiplied into one `4x4` (or `2x2`) matrix once, before the
//! shot loop, and applied with a single [`apply_matrix`] sweep.
//!
//! Because [`Gate`](crate::Gate) is a closed enum (adding an arbitrary-unitary variant
//! would break the QASM round-trip), fusion does not rewrite the circuit —
//! it lowers it to a [`FusedProgram`]: a parallel instruction stream where
//! each element is either a [`FusedBlock`] (the product matrix plus the
//! original gate names, so per-gate tallies stay exact) or a passthrough
//! index into the source circuit. Consumers iterate the program and fall
//! back to the original instruction for everything that did not fuse:
//! measurements, resets, barriers, conditioned gates and gates of arity
//! three or more.
//!
//! Single unfused gates are deliberately left as passthroughs rather than
//! 1-gate "blocks": the simulator's specialized `apply_gate` fast paths beat
//! a generic matrix multiply, and — more importantly for the prefix engine —
//! a passthrough evolves the state through *bit-identical* float operations
//! to the per-shot executor.
//!
//! [`apply_matrix`]: https://docs.rs/qsim (StateVector::apply_matrix)

use crate::circuit::Circuit;
use crate::instruction::OpKind;
use qmath::CMatrix;

/// Most qubits a fused block may act on. Blocks stay within two qubits so
/// the fused matrix is at most `4x4` and the apply sweep stays cheap.
pub const MAX_FUSED_QUBITS: usize = 2;

/// One element of a [`FusedProgram`].
#[derive(Debug, Clone, PartialEq)]
pub enum FusedOp {
    /// Two or more adjacent gates multiplied into one unitary.
    Block(FusedBlock),
    /// The instruction at this index of the source circuit, unchanged.
    Passthrough(usize),
}

/// A run of adjacent unconditioned gates collapsed to a single unitary.
#[derive(Debug, Clone, PartialEq)]
pub struct FusedBlock {
    /// Wire indices the block acts on, ascending; operand `k` of
    /// [`FusedBlock::matrix`] lives on `qubits[k]`.
    pub qubits: Vec<usize>,
    /// The product of the member gates' embedded matrices, in application
    /// order (later gates multiplied on the left).
    pub matrix: CMatrix,
    /// Names of the member gates in original circuit order, so consumers
    /// can tally per-gate counters exactly as an unfused run would.
    pub gate_names: Vec<&'static str>,
}

/// A circuit lowered through gate fusion. Iterate [`FusedProgram::ops`]
/// alongside the source circuit.
#[derive(Debug, Clone, PartialEq)]
pub struct FusedProgram {
    ops: Vec<FusedOp>,
    stats: FusionStats,
}

/// What fusion achieved on a circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FusionStats {
    /// Number of fused blocks emitted.
    pub blocks: usize,
    /// Gates absorbed into those blocks (each block absorbs ≥ 2).
    pub gates_fused: usize,
    /// Instructions passed through unchanged.
    pub passthrough: usize,
}

impl FusedProgram {
    /// The lowered instruction stream, in source order.
    #[must_use]
    pub fn ops(&self) -> &[FusedOp] {
        &self.ops
    }

    /// Fusion statistics for observability.
    #[must_use]
    pub fn stats(&self) -> FusionStats {
        self.stats
    }
}

/// Lowers `circuit` through greedy adjacent-gate fusion.
///
/// Scans the instruction stream once, accumulating a block of consecutive
/// unconditioned gates while their combined support fits in
/// [`MAX_FUSED_QUBITS`] wires. Any measurement, reset, barrier, conditioned
/// gate or support overflow flushes the block: runs of two or more gates
/// become a [`FusedBlock`], single gates pass through untouched.
#[must_use]
pub fn fuse(circuit: &Circuit) -> FusedProgram {
    let mut ops = Vec::new();
    let mut stats = FusionStats::default();
    // The pending run: (source index, operand wires) per gate.
    let mut run: Vec<(usize, Vec<usize>)> = Vec::new();
    let mut support: Vec<usize> = Vec::new();

    let flush = |run: &mut Vec<(usize, Vec<usize>)>,
                 support: &mut Vec<usize>,
                 ops: &mut Vec<FusedOp>,
                 stats: &mut FusionStats| {
        if run.len() >= 2 {
            ops.push(FusedOp::Block(build_block(circuit, run, support)));
            stats.blocks += 1;
            stats.gates_fused += run.len();
        } else if let Some((idx, _)) = run.first() {
            ops.push(FusedOp::Passthrough(*idx));
            stats.passthrough += 1;
        }
        run.clear();
        support.clear();
    };

    for (idx, inst) in circuit.instructions().iter().enumerate() {
        let fusable = matches!(inst.kind(), OpKind::Gate(g) if !inst.is_conditioned()
            && g.num_qubits() <= MAX_FUSED_QUBITS);
        if !fusable {
            flush(&mut run, &mut support, &mut ops, &mut stats);
            ops.push(FusedOp::Passthrough(idx));
            stats.passthrough += 1;
            continue;
        }
        let wires: Vec<usize> = inst.qubits().iter().map(|q| q.index()).collect();
        let mut union = support.clone();
        for &w in &wires {
            if !union.contains(&w) {
                union.push(w);
            }
        }
        if union.len() > MAX_FUSED_QUBITS {
            flush(&mut run, &mut support, &mut ops, &mut stats);
            support = wires.clone();
        } else {
            support = union;
        }
        run.push((idx, wires));
    }
    flush(&mut run, &mut support, &mut ops, &mut stats);
    FusedProgram { ops, stats }
}

/// Multiplies the run's gates into one embedded unitary on the sorted
/// support wires.
fn build_block(circuit: &Circuit, run: &[(usize, Vec<usize>)], support: &[usize]) -> FusedBlock {
    let mut qubits: Vec<usize> = support.to_vec();
    qubits.sort_unstable();
    let k = qubits.len();
    let mut matrix = CMatrix::identity(1 << k);
    let mut gate_names = Vec::with_capacity(run.len());
    for (idx, wires) in run {
        let gate = circuit.instructions()[*idx]
            .as_gate()
            .expect("fusion runs contain only gates");
        gate_names.push(gate.name());
        let local: Vec<usize> = wires
            .iter()
            .map(|w| {
                qubits
                    .iter()
                    .position(|q| q == w)
                    .expect("operand wire is in the block support")
            })
            .collect();
        // State evolution is left-multiplication: applying `gate` after the
        // accumulated product U gives G·U.
        matrix = gate.matrix().embed(&local, k).mul(&matrix);
    }
    FusedBlock {
        qubits,
        matrix,
        gate_names,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instruction::Condition;
    use crate::register::{Clbit, Qubit};
    use crate::Gate;

    fn q(i: usize) -> Qubit {
        Qubit::new(i)
    }

    /// Applies a fused program to a statevector-free reference: builds the
    /// full-circuit unitary both ways and compares.
    fn full_unitary(circuit: &Circuit) -> CMatrix {
        let n = circuit.num_qubits();
        let mut u = CMatrix::identity(1 << n);
        for inst in circuit.iter() {
            if inst.is_barrier() {
                continue;
            }
            let g = inst.as_gate().expect("unitary circuit");
            let wires: Vec<usize> = inst.qubits().iter().map(|qb| qb.index()).collect();
            u = g.matrix().embed(&wires, n).mul(&u);
        }
        u
    }

    fn fused_unitary(circuit: &Circuit, program: &FusedProgram) -> CMatrix {
        let n = circuit.num_qubits();
        let mut u = CMatrix::identity(1 << n);
        for op in program.ops() {
            match op {
                FusedOp::Block(b) => {
                    u = b.matrix.embed(&b.qubits, n).mul(&u);
                }
                FusedOp::Passthrough(idx) => {
                    let inst = &circuit.instructions()[*idx];
                    if inst.is_barrier() {
                        continue;
                    }
                    let g = inst.as_gate().expect("unitary circuit");
                    let wires: Vec<usize> = inst.qubits().iter().map(|qb| qb.index()).collect();
                    u = g.matrix().embed(&wires, n).mul(&u);
                }
            }
        }
        u
    }

    #[test]
    fn adjacent_single_qubit_gates_fuse_into_one_block() {
        let mut c = Circuit::new(1, 0);
        c.h(q(0)).t(q(0)).s(q(0)).x(q(0));
        let p = fuse(&c);
        assert_eq!(p.ops().len(), 1);
        let FusedOp::Block(b) = &p.ops()[0] else {
            panic!("expected one fused block, got {:?}", p.ops());
        };
        assert_eq!(b.qubits, vec![0]);
        assert_eq!(b.gate_names, vec!["h", "t", "s", "x"]);
        assert_eq!(p.stats().blocks, 1);
        assert_eq!(p.stats().gates_fused, 4);
        assert_eq!(p.stats().passthrough, 0);
        assert!(fused_unitary(&c, &p).approx_eq(&full_unitary(&c), 1e-12));
    }

    #[test]
    fn two_qubit_runs_fuse_and_match_the_unfused_unitary() {
        let mut c = Circuit::new(2, 0);
        c.h(q(0)).cx(q(0), q(1)).t(q(1)).cx(q(0), q(1)).h(q(0));
        let p = fuse(&c);
        assert_eq!(p.ops().len(), 1, "{:?}", p.ops());
        assert!(fused_unitary(&c, &p).approx_eq(&full_unitary(&c), 1e-12));
    }

    #[test]
    fn support_overflow_splits_blocks() {
        // q0q1 run, then a gate touching q2 forces a new block.
        let mut c = Circuit::new(3, 0);
        c.h(q(0)).cx(q(0), q(1)).cx(q(1), q(2)).h(q(2));
        let p = fuse(&c);
        assert_eq!(p.ops().len(), 2, "{:?}", p.ops());
        assert_eq!(p.stats().blocks, 2);
        assert_eq!(p.stats().gates_fused, 4);
        assert!(fused_unitary(&c, &p).approx_eq(&full_unitary(&c), 1e-12));
    }

    #[test]
    fn single_gates_pass_through_unfused() {
        let mut c = Circuit::new(3, 0);
        c.h(q(0)).cx(q(1), q(2));
        let p = fuse(&c);
        assert_eq!(
            p.ops(),
            &[FusedOp::Passthrough(0), FusedOp::Passthrough(1)],
            "disjoint supports must not fuse"
        );
        assert_eq!(p.stats().blocks, 0);
        assert_eq!(p.stats().passthrough, 2);
    }

    #[test]
    fn measure_reset_barrier_and_conditions_flush() {
        let mut c = Circuit::new(2, 1);
        c.h(q(0)).t(q(0));
        c.measure(q(0), Clbit::new(0));
        c.h(q(0)).s(q(0));
        c.reset(q(0));
        c.barrier_all();
        c.push(
            crate::Instruction::gate(Gate::X, vec![q(0)])
                .with_condition(Condition::bit(Clbit::new(0))),
        );
        c.h(q(1));
        let p = fuse(&c);
        // [h t] fused, measure, [h s] fused, reset, barrier, cond-x, h.
        let kinds: Vec<bool> = p
            .ops()
            .iter()
            .map(|op| matches!(op, FusedOp::Block(_)))
            .collect();
        assert_eq!(
            kinds,
            vec![true, false, true, false, false, false, false],
            "{:?}",
            p.ops()
        );
        assert_eq!(p.stats().blocks, 2);
        assert_eq!(p.stats().gates_fused, 4);
        assert_eq!(p.stats().passthrough, 5);
    }

    #[test]
    fn three_qubit_gates_pass_through() {
        let mut c = Circuit::new(3, 0);
        c.h(q(0)).ccx(q(0), q(1), q(2)).h(q(0));
        let p = fuse(&c);
        assert_eq!(p.ops().len(), 3);
        assert!(p
            .ops()
            .iter()
            .all(|op| matches!(op, FusedOp::Passthrough(_))));
    }

    #[test]
    fn operand_order_is_preserved_in_the_block_matrix() {
        // cx q1,q0 (control on the higher wire) must not be transposed by
        // the ascending support sort.
        let mut c = Circuit::new(2, 0);
        c.h(q(1)).cx(q(1), q(0));
        let p = fuse(&c);
        assert_eq!(p.stats().blocks, 1);
        assert!(fused_unitary(&c, &p).approx_eq(&full_unitary(&c), 1e-12));
    }

    #[test]
    fn empty_circuit_lowers_to_empty_program() {
        let c = Circuit::new(2, 0);
        let p = fuse(&c);
        assert!(p.ops().is_empty());
        assert_eq!(p.stats(), FusionStats::default());
    }
}
