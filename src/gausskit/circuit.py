"""Circuit intermediate representation.

A circuit is an ordered sequence of gates and measurement barriers over a
register of ``data_qubits`` followed by ``ancilla_qubits``.  Qubit ``j``
of the data register carries binary weight ``2**j`` (least significant at
index 0).  A ``MeasureBarrier`` post-selects the listed ancilla on the
all-zero outcome, after which they count as reset and reusable.

All types are immutable after construction.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

from .gates import Gate, GateKind, ParameterError, _check_alpha


@dataclass(frozen=True)
class MeasureBarrier:
    """Post-selected |0> measurement of the listed ancilla (absolute indices)."""

    ancilla: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(set(self.ancilla)) != len(self.ancilla):
            raise ParameterError("duplicate ancilla in measure barrier")


Element = Gate | MeasureBarrier


@dataclass(frozen=True)
class Circuit:
    """Gates and barriers over one register, all sharing the base ``alpha``.

    Construction rejects a negative register size and an alpha outside
    (0, 1), as the textual format does, so no builder can emit a circuit
    ``textio`` refuses.
    """

    data_qubits: int
    ancilla_qubits: int
    alpha: float
    elements: tuple[Element, ...] = ()

    def __post_init__(self) -> None:
        if self.data_qubits < 0 or self.ancilla_qubits < 0:
            raise ParameterError("register sizes must be non-negative, got "
                                 f"data={self.data_qubits} "
                                 f"ancilla={self.ancilla_qubits}")
        _check_alpha(self.alpha)

    @property
    def total_qubits(self) -> int:
        return self.data_qubits + self.ancilla_qubits

    def is_ancilla(self, qubit: int) -> bool:
        return qubit >= self.data_qubits

    def gates(self) -> tuple[Gate, ...]:
        return tuple(e for e in self.elements if isinstance(e, Gate))

    def count(self, kind: GateKind, n_controls: int | None = None) -> int:
        return sum(
            1
            for g in self.gates()
            if g.kind is kind
            and (n_controls is None or len(g.controls) == n_controls)
        )


def validate(circuit: Circuit) -> list[str]:
    """Check circuit invariants; returns one message per violation.

    An empty list means the circuit is well-formed: all indices in range,
    every B-gate ancilla fresh (never used, or measured since last use),
    every touched ancilla measured before the circuit ends, and no barrier
    measuring a data qubit.
    """
    return [f"element {idx}: {message}"
            for idx, message in _violations(circuit)]


def _violations(circuit: Circuit) -> list[tuple[int, str]]:
    """(element index, message) for each violation ``validate`` reports."""
    violations: list[tuple[int, str]] = []
    total = circuit.total_qubits
    dirty: dict[int, int] = {}  # touched ancilla -> last element touching it
    for idx, elem in enumerate(circuit.elements):
        if isinstance(elem, MeasureBarrier):
            for a in elem.ancilla:
                if not circuit.is_ancilla(a) or a >= total:
                    violations.append(
                        (idx, f"barrier measures non-ancilla qubit {a}"))
                dirty.pop(a, None)
            continue
        for q in elem.qubits:
            if q < 0 or q >= total:
                violations.append(
                    (idx, f"qubit {q} out of range (total {total})"))
        if (elem.kind is GateKind.B and circuit.is_ancilla(elem.target)
                and elem.target in dirty):
            violations.append(
                (idx, f"ancilla {elem.target} not reset before B gate"))
        # any touch of an ancilla marks it dirty until measured
        for q in elem.qubits:
            if circuit.is_ancilla(q):
                dirty[q] = idx
    for a, idx in dirty.items():
        violations.append(
            (idx, f"ancilla {a} still unmeasured at the end of the circuit"))
    return violations


@dataclass(frozen=True)
class Layer:
    """One round of doubly-controlled rotations between measurement barriers."""

    gates: tuple[Gate, ...]

    def __post_init__(self) -> None:
        used: set[int] = set()
        targets: set[int] = set()
        for g in self.gates:
            if g.kind is not GateKind.B or len(g.controls) != 2:
                raise ParameterError("layers hold doubly-controlled B gates only")
            if g.target in targets:
                raise ParameterError("layer gates must target distinct ancilla")
            targets.add(g.target)
            ctl = {c.qubit for c in g.controls}
            if ctl & used:
                raise ParameterError("layer control sets must be disjoint")
            used |= ctl
        object.__setattr__(self, "gates", tuple(self.gates))

    @property
    def ancilla(self) -> tuple[int, ...]:
        return tuple(g.target for g in self.gates)


@dataclass(frozen=True)
class LayeredCircuit:
    """Prelude (uncontrolled rotations), measurement layers, postlude.

    The prelude prepares the core register; each layer's gates execute in
    one T-depth step and end with a barrier; the postlude symmetrizes
    (Hadamard plus open-control CNOTs) and is Clifford-only.
    """

    prelude: Circuit
    layers: tuple[Layer, ...]
    postlude: Circuit

    @property
    def data_qubits(self) -> int:
        return self.prelude.data_qubits

    @property
    def ancilla_qubits(self) -> int:
        return self.prelude.ancilla_qubits

    @property
    def alpha(self) -> float:
        return self.prelude.alpha

    def with_layers(self, layers: tuple[Layer, ...]) -> "LayeredCircuit":
        return replace(self, layers=layers)

    def to_circuit(self) -> Circuit:
        """Flatten into a plain Circuit (each layer followed by its barrier)."""
        elements: list[Element] = list(self.prelude.elements)
        for layer in self.layers:
            elements.extend(layer.gates)
            if layer.gates:
                elements.append(MeasureBarrier(layer.ancilla))
        elements.extend(self.postlude.elements)
        return Circuit(
            data_qubits=self.data_qubits,
            ancilla_qubits=self.ancilla_qubits,
            alpha=self.alpha,
            elements=tuple(elements),
        )
