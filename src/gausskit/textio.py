"""Line-oriented textual circuit format.

Header, then one element per line::

    QUBITS data=<n> ancilla=<a> alpha=<alpha>
    A <exp> q<t>
    B <exp> q<t> [c<j>[!]] [c<k>[!]]
    Z <exp> q<t> [c<j>[!]] ...
    H q<t>
    X q<t>
    CNOT c<j>[!] q<t>
    MEASURE a<i>,a<j>,...

``!`` marks an open control.  Gate lines use absolute qubit indices
(ancilla start at ``data``); MEASURE lines use ancilla-relative indices.
Blank lines and ``#`` lines are skipped.  Field order is fixed, so
export -> import -> export is byte-identical: numbers are read in ASCII
digits only, with no ``_`` separators and no leading ``+``, which would
not survive the round trip.  ``load`` also validates the circuit, naming
the line of the first offending element.
"""
from __future__ import annotations

import re
from dataclasses import replace

from .circuit import Circuit, MeasureBarrier, _violations
from .gates import Control, Gate, GateKind, ParameterError


class CircuitParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


_CONTROL_RE = re.compile(r"^c(\d+)(!?)$", re.ASCII)
_TARGET_RE = re.compile(r"^q(\d+)$", re.ASCII)
_ANCILLA_RE = re.compile(r"^a(\d+)$", re.ASCII)


def _number(token: str, convert):
    # dumps writes no non-ASCII digit, "_" separator or leading "+"
    if not token.isascii() or "_" in token or token.startswith("+"):
        raise ValueError(f"bad number {token!r}")
    return convert(token)


def dumps(circuit: Circuit) -> str:
    lines = [
        f"QUBITS data={circuit.data_qubits} ancilla={circuit.ancilla_qubits} "
        f"alpha={repr(circuit.alpha)}"
    ]
    for elem in circuit.elements:
        if isinstance(elem, MeasureBarrier):
            rel = ",".join(f"a{a - circuit.data_qubits}" for a in elem.ancilla)
            lines.append(f"MEASURE {rel}")
        else:
            lines.append(str(elem))
    return "\n".join(lines) + "\n"


def _match(pattern: re.Pattern, token: str, what: str,
           line_no: int) -> re.Match:
    m = pattern.match(token)
    if not m:
        raise CircuitParseError(line_no, f"bad {what} token {token!r}")
    return m


def _parse_control(token: str, line_no: int) -> Control:
    m = _match(_CONTROL_RE, token, "control", line_no)
    return Control(qubit=int(m.group(1)), closed=m.group(2) != "!")


def _parse_target(token: str, line_no: int) -> int:
    return int(_match(_TARGET_RE, token, "target", line_no).group(1))


def loads(text: str) -> Circuit:
    return _parse(text)[0]


def _parse(text: str) -> tuple[Circuit, list[int]]:
    """The circuit and the source line number of each of its elements."""
    lines = text.splitlines()
    if not lines:
        raise CircuitParseError(1, "empty circuit file")
    words = lines[0].split()
    if len(words) != 4 or words[0] != "QUBITS":
        raise CircuitParseError(1, "expected 'QUBITS data=<n> ancilla=<a> alpha=<x>'")
    fields = {}
    for token in words[1:]:
        key, _, value = token.partition("=")
        fields[key] = value
    try:
        data = _number(fields["data"], int)
        anc = _number(fields["ancilla"], int)
        alpha = _number(fields["alpha"], float)
    except (KeyError, ValueError) as exc:
        raise CircuitParseError(1, f"bad header field: {exc}") from exc
    try:
        header = Circuit(data_qubits=data, ancilla_qubits=anc, alpha=alpha)
    except ParameterError as exc:
        raise CircuitParseError(1, str(exc)) from exc

    elements = []
    line_nos = []
    for line_no, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        op = tokens[0]
        try:
            if op == "MEASURE":
                if len(tokens) != 2:
                    raise CircuitParseError(line_no, "MEASURE takes one index list")
                elements.append(MeasureBarrier(tuple(
                    data + int(_match(_ANCILLA_RE, part, "ancilla",
                                      line_no).group(1))
                    for part in tokens[1].split(","))))
            elif op in ("A", "B", "Z"):
                if len(tokens) < 3:
                    raise CircuitParseError(line_no, f"{op} needs exponent and target")
                exponent = _number(tokens[1], float)
                target = _parse_target(tokens[2], line_no)
                controls = tuple(_parse_control(t, line_no) for t in tokens[3:])
                elements.append(
                    Gate(GateKind(op), target, exponent=exponent, controls=controls))
            elif op in ("H", "X"):
                if len(tokens) != 2:
                    raise CircuitParseError(line_no, f"{op} takes one target")
                elements.append(Gate(GateKind(op), _parse_target(tokens[1], line_no)))
            elif op == "CNOT":
                if len(tokens) != 3:
                    raise CircuitParseError(line_no, "CNOT takes control then target")
                control = _parse_control(tokens[1], line_no)
                target = _parse_target(tokens[2], line_no)
                elements.append(
                    Gate(GateKind.CNOT, target, controls=(control,)))
            else:
                raise CircuitParseError(line_no, f"unknown element {op!r}")
        except CircuitParseError:
            raise
        except ValueError as exc:
            raise CircuitParseError(line_no, str(exc)) from exc
        line_nos.append(line_no)
    return replace(header, elements=tuple(elements)), line_nos


def load(path: str) -> Circuit:
    """Read and validate a circuit file; the first violation raises
    CircuitParseError at the line of its element."""
    with open(path, encoding="utf-8") as fh:
        circuit, line_nos = _parse(fh.read())
    for idx, message in _violations(circuit):  # the first one raises
        raise CircuitParseError(line_nos[idx], message)
    return circuit
