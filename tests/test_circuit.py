import pytest

from gausskit import textio
from gausskit.builders import (
    build_exponential,
    build_full_gaussian,
    build_gaussian_2d,
    build_half_gaussian,
    build_poly_phase,
    layered_full_gaussian,
)
from gausskit.circuit import Circuit, Layer, MeasureBarrier, validate
from gausskit.gates import Control, Gate, GateKind, ParameterError


def test_validate_empty_circuit():
    assert validate(Circuit(data_qubits=2, ancilla_qubits=0, alpha=0.5)) == []


@pytest.mark.parametrize("data, ancilla", [(-3, 0), (2, -1)])
def test_circuit_rejects_negative_register_sizes(data, ancilla):
    with pytest.raises(ParameterError, match="non-negative"):
        Circuit(data_qubits=data, ancilla_qubits=ancilla, alpha=0.5)


def test_validate_flags_unreset_ancilla():
    reuse = Circuit(
        data_qubits=1, ancilla_qubits=1, alpha=0.5,
        elements=(
            Gate(GateKind.B, 1, exponent=0.0, controls=(Control(0),)),
            Gate(GateKind.B, 1, exponent=1.0, controls=(Control(0),)),
            MeasureBarrier((1,)),
        ),
    )
    problems = validate(reuse)
    assert len(problems) == 1
    assert "not reset" in problems[0]
    assert "element 1" in problems[0]


def test_validate_allows_measured_reuse():
    ok = Circuit(
        data_qubits=1, ancilla_qubits=1, alpha=0.5,
        elements=(
            Gate(GateKind.B, 1, exponent=0.0, controls=(Control(0),)),
            MeasureBarrier((1,)),
            Gate(GateKind.B, 1, exponent=1.0, controls=(Control(0),)),
            MeasureBarrier((1,)),
        ),
    )
    assert validate(ok) == []


def test_validate_flags_unmeasured_ancilla():
    # the exact backend raises on an ancilla left live at the end
    open_end = Circuit(
        data_qubits=1, ancilla_qubits=2, alpha=0.5,
        elements=(
            Gate(GateKind.B, 1, exponent=0.0, controls=(Control(0),)),
            Gate(GateKind.B, 2, exponent=1.0, controls=(Control(0),)),
            MeasureBarrier((2,)),
        ),
    )
    assert validate(open_end) == [
        "element 0: ancilla 1 still unmeasured at the end of the circuit"]


def test_validate_flags_out_of_range():
    bad = Circuit(data_qubits=1, ancilla_qubits=0, alpha=0.5,
                  elements=(Gate(GateKind.H, 3),))
    assert any("out of range" in p for p in validate(bad))


@pytest.mark.parametrize("circuit", [
    build_full_gaussian(6, 0.9),
    build_half_gaussian(4, 0.8),
    build_exponential(5, 0.5),
    build_poly_phase(4, 0.3, 2),
    build_gaussian_2d(2, 3, (1, 1, 1), 0.9),
    layered_full_gaussian(7, 0.95).to_circuit(),
    layered_full_gaussian(6, 0.9).to_circuit(),
])
def test_builder_outputs_validate(circuit):
    assert validate(circuit) == []


def test_layer_rejects_overlapping_controls():
    g1 = Gate(GateKind.B, 10, exponent=1.0, controls=(Control(0), Control(1)))
    g2 = Gate(GateKind.B, 11, exponent=2.0, controls=(Control(1), Control(2)))
    with pytest.raises(ParameterError):
        Layer(gates=(g1, g2))


def test_layer_rejects_shared_ancilla():
    g1 = Gate(GateKind.B, 10, exponent=1.0, controls=(Control(0), Control(1)))
    g2 = Gate(GateKind.B, 10, exponent=2.0, controls=(Control(2), Control(3)))
    with pytest.raises(ParameterError):
        Layer(gates=(g1, g2))


def test_layered_pair_union_is_exact():
    lay = layered_full_gaussian(8, 0.9)
    core = 7
    seen = [tuple(sorted(c.qubit for c in g.controls))
            for layer in lay.layers for g in layer.gates]
    expected = {(j, k) for j in range(core) for k in range(j + 1, core)}
    assert len(seen) == len(expected)
    assert set(seen) == expected


@pytest.mark.parametrize("circuit", [
    build_full_gaussian(5, 0.7),
    build_half_gaussian(3, 0.8),
    build_exponential(4, 0.6),
    build_poly_phase(3, 0.25, 3),
    build_gaussian_2d(2, 2, (2, 1, 1), 0.9),
    layered_full_gaussian(6, 0.85).to_circuit(),
])
def test_text_roundtrip_identity(circuit):
    text = textio.dumps(circuit)
    back = textio.loads(text)
    assert back == circuit
    assert textio.dumps(back) == text


def test_text_format_shape():
    lay = layered_full_gaussian(6, 0.9).to_circuit()
    lines = textio.dumps(lay).splitlines()
    assert lines[0] == "QUBITS data=6 ancilla=2 alpha=0.9"
    assert lines[1] == "H q5"
    assert lines[2] == "A 1 q0"  # log2(2**0 + 4**0) == 1 exactly
    assert any(line.startswith("MEASURE a") for line in lines)
    assert lines[-1] == "CNOT c5! q4"


def test_parse_error_carries_line_number():
    with pytest.raises(textio.CircuitParseError) as err:
        textio.loads("QUBITS data=2 ancilla=0 alpha=0.5\nH q0\nWAT q1\n")
    assert err.value.line_no == 3


def test_parse_rejects_bad_header():
    with pytest.raises(textio.CircuitParseError) as err:
        textio.loads("NOPE\n")
    assert err.value.line_no == 1


def test_open_control_roundtrip():
    circ = Circuit(
        data_qubits=2, ancilla_qubits=0, alpha=0.5,
        elements=(Gate(GateKind.CNOT, 0, controls=(Control(1, closed=False),)),))
    assert "CNOT c1! q0" in textio.dumps(circ)
    assert textio.loads(textio.dumps(circ)) == circ
