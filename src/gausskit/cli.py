"""Command-line front end: circuit generation, simulation, and sweeps.

``generate`` writes a circuit of one family in the textual format,
``simulate`` runs a circuit file or a Gaussian spec, and ``sweep`` grids
resource estimates into CSV.  The family table ``FAMILIES`` pairs each
builder with the closed-form target a circuit file is compared against.

Exit codes: 0 success, 2 usage error, 3 unparsable or invalid circuit file
(the message names the line), 4 capacity.  Output is plain text and CSV;
plotting is left to external tools.
"""
from __future__ import annotations

import concurrent.futures
import csv
import io
import math
import sys

import click
import numpy as np

from . import builders, optimizer, resources, simulator, textio
from .gates import GaussianSpec, ParameterError

CSV_COLUMNS = ["n_qubits", "alpha_or_beta", "delta", "epsilon", "gamma",
               "expected_t_depth", "layer_count", "seed"]

EXIT_PARSE = 3
EXIT_CAPACITY = 4


def _fail(code: int, message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _ints(value: str, count: int, option: str) -> tuple[int, ...]:
    """Parse a comma-separated list of exactly ``count`` integers."""
    try:
        ints = tuple(int(p) for p in value.split(","))
    except ValueError:
        ints = ()
    if len(ints) != count:
        raise click.BadParameter(
            f"expected {count} comma-separated integer(s), got {value!r}",
            param_hint=option)
    return ints


# family -> (build(ns, alpha, d, q, layered), ideal(ns, alpha, d, q, tail)):
# ns are the register sizes (n_x, n_y for gaussian2d), d the phase degree,
# q the 2-D quadratic form, tail the ideal's normalization; ideal() is the
# target that simulate FILE --family compares to
FAMILIES = {
    "phase": (
        lambda ns, a, d, q, layered: builders.build_poly_phase(ns[0], a, d),
        lambda ns, a, d, q, tail: simulator.ideal_phase_state(ns[0], a, d)),
    "exponential": (
        lambda ns, a, d, q, layered: builders.build_exponential(ns[0], a),
        lambda ns, a, d, q, tail: simulator.ideal_exponential(ns[0], a)),
    "half-gaussian": (
        lambda ns, a, d, q, layered: builders.build_half_gaussian(ns[0], a),
        lambda ns, a, d, q, tail: simulator.ideal_half_gaussian(ns[0], a, tail)),
    "gaussian": (
        lambda ns, a, d, q, layered: (
            builders.layered_full_gaussian(ns[0], a).to_circuit() if layered
            else builders.build_full_gaussian(ns[0], a)),
        lambda ns, a, d, q, tail: simulator.ideal_gaussian(ns[0], a, tail)),
    "gaussian2d": (
        lambda ns, a, d, q, layered: builders.build_gaussian_2d(*ns, q, a),
        lambda ns, a, d, q, tail: simulator.ideal_gaussian_2d(*ns, q, a)),
}


def _registers(n_spec: str, family: str | None) -> tuple[int, ...]:
    """Parse ``--n`` as the family's register sizes: n_x,n_y for gaussian2d."""
    return _ints(n_spec, 2 if family == "gaussian2d" else 1, "--n")


@click.group()
def main() -> None:
    """Gaussian state-preparation toolkit."""


@main.command()
@click.option("--family", required=True, type=click.Choice(list(FAMILIES)))
@click.option("--n", "n_spec", required=True, help="qubits, e.g. 6 or 3,3")
@click.option("--alpha", type=float, default=None)
@click.option("--beta", type=float, default=None)
@click.option("--d", "degree", type=int, default=1, help="phase polynomial degree")
@click.option("--layered", is_flag=True, help="pack pair windows into rounds")
@click.option("--q", "qform", default="1,0,1",
              help="2-D quadratic form cxx,cxy,cyy")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def generate(family, n_spec, alpha, beta, degree, layered, qform, out) -> None:
    """Build a circuit and write it in the textual format."""
    ns = _registers(n_spec, family)
    q = _ints(qform, 3, "--q")
    build, _ = FAMILIES[family]
    try:
        if beta is not None:
            alpha = GaussianSpec(n_qubits=sum(ns), alpha=alpha,
                                 beta=beta).derived_alpha
        if alpha is None:
            raise click.UsageError("provide --alpha or --beta")
        circuit = build(ns, alpha, degree, q, layered)
    except ParameterError as exc:
        raise click.UsageError(str(exc))
    text = textio.dumps(circuit)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


@main.command()
@click.argument("circuit_file", required=False,
                type=click.Path(exists=True, dir_okay=False))
@click.option("--family", type=click.Choice(list(FAMILIES)), default=None,
              help="compare a circuit file against this target")
@click.option("--n", "n_spec", default=None,
              help="qubits; with a file, the family's register sizes")
@click.option("--d", "degree", type=int, default=1)
@click.option("--q", "qform", default="1,0,1")
@click.option("--alpha", type=float, default=None)
@click.option("--beta", type=float, default=None)
@click.option("--delta", type=float, default=0.0, help="per-gate noise budget")
@click.option("--alloc", type=click.Choice(["uniform", "2to1"]), default=None,
              help="budget split  [default: 2to1; needs --delta]")
@click.option("--order", type=click.Choice(["optimal", "random", "identity"]),
              default=None,
              help="layer order  [default: optimal; needs --delta, no file]")
@click.option("--ideal", "tail", type=click.Choice(["finite", "infinite"]),
              default="finite",
              help="reference convention for circuit-file comparisons")
@click.option("--seed", type=int, default=None,
              help="noise seed  [default: 0; needs --delta]")
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="append one CSV row here")
def simulate(circuit_file, family, n_spec, degree, qform, alpha, beta, delta,
             alloc, order, tail, seed, out) -> None:
    """Simulate a circuit file or a Gaussian spec and report the numbers.

    A circuit file carries its own alpha and qubit count: ``--alpha`` may
    only repeat the header's, ``--beta`` does not apply, and ``--n`` lists
    the family's register sizes, which must sum to the file's ``data=``.
    ``--delta`` draws gate noise from ``--seed``; a run without it is
    noiseless and takes no ``--alloc``, ``--order`` or ``--seed``, and a
    file fixes its own layer order, so it takes no ``--order``.
    """
    q = _ints(qform, 3, "--q")
    _check_used(circuit_file is not None, delta != 0.0,
                {"--alloc": alloc, "--order": order, "--seed": seed})
    alloc = alloc or "2to1"
    order = order or "optimal"
    seed = 0 if seed is None else seed
    if circuit_file is None:
        if n_spec is None:
            raise click.UsageError(
                "give a circuit file or --n with --alpha/--beta")
        n_qubits = _ints(n_spec, 1, "--n")[0]
    try:
        if circuit_file:
            circuit = textio.load(circuit_file)
            n_qubits = circuit.data_qubits
            ns = _file_registers(circuit, n_spec, family, alpha, beta)
            alpha = circuit.alpha
            noise, et = None, math.nan
            if delta != 0.0:
                budget = resources._budget(delta, alloc)
                noise = simulator.realize_noise(
                    circuit.gates(), budget, np.random.default_rng(seed))
                et = resources.circuit_t_depth(circuit, budget)
            state, rep = simulator.simulate_postselected(circuit, noise=noise)
            eps = math.nan
            if family is not None:
                _, ideal = FAMILIES[family]
                eps = simulator.l2_error(ideal(ns, alpha, degree, q, tail),
                                         state.amplitudes)
            gamma = rep.subnormalization
            probs = rep.layer_probs
        elif delta == 0.0:
            # noiseless reference run: no budget, so no T-depth figure
            alpha = GaussianSpec(n_qubits=n_qubits, alpha=alpha,
                                 beta=beta).derived_alpha
            state, rep = simulator.simulate_postselected(
                builders.layered_full_gaussian(n_qubits, alpha))
            eps = simulator.l2_error(
                simulator.ideal_gaussian(n_qubits, alpha), state.amplitudes)
            et = math.nan
            gamma = rep.subnormalization
            probs = rep.layer_probs
        else:
            spec = GaussianSpec(n_qubits=n_qubits, alpha=alpha, beta=beta,
                                gate_error=delta)
            report = resources.estimate(spec, seed=seed, order=order,
                                        alloc=alloc)
            eps, et = report.l2_error, report.expected_t_depth
            alpha = report.alpha
            gamma = report.subnormalization
            probs = report.layer_probs
    except textio.CircuitParseError as exc:
        _fail(EXIT_PARSE, str(exc))
    except simulator.CapacityError as exc:
        _fail(EXIT_CAPACITY, str(exc))
    except ParameterError as exc:
        raise click.UsageError(str(exc))

    click.echo(f"data qubits:      {n_qubits}")
    click.echo(f"epsilon (L2):     {eps:.6e}")
    click.echo(f"gamma:            {gamma:.12f}")
    click.echo(f"success prob:     {gamma ** 2:.12f}")
    click.echo("layer probs:      " + " ".join(f"{p:.6f}" for p in probs))
    click.echo(f"expected T-depth: {et:.2f}")
    if out:
        row = [n_qubits, alpha, delta, eps, gamma, et, len(probs), seed]
        _append_csv(out, [row])


def _check_used(has_file: bool, noisy: bool, given: dict) -> None:
    """Reject an option that the chosen ``simulate`` branch would ignore."""
    for option, value in given.items():
        if value is None:
            continue
        if not noisy:
            raise click.BadParameter("has no effect without --delta",
                                     param_hint=option)
        if has_file and option == "--order":
            raise click.BadParameter(
                "has no effect on a circuit file, which fixes its layer order",
                param_hint=option)


def _file_registers(circuit, n_spec, family, alpha, beta) -> tuple[int, ...]:
    """Check the options a circuit file fixes; return the register sizes."""
    if beta is not None:
        raise click.BadParameter("a circuit file fixes alpha; give no --beta",
                                 param_hint="--beta")
    if alpha is not None and alpha != circuit.alpha:
        raise click.BadParameter(
            f"{alpha!r} differs from the file's alpha={circuit.alpha!r}",
            param_hint="--alpha")
    if n_spec is None:
        if family == "gaussian2d":
            raise click.UsageError(
                "--family gaussian2d needs --n n_x,n_y for a circuit file")
        return (circuit.data_qubits,)
    ns = _registers(n_spec, family)
    if sum(ns) != circuit.data_qubits:
        raise click.BadParameter(
            f"{n_spec!r} does not sum to the file's data={circuit.data_qubits}",
            param_hint="--n")
    return ns


@main.command()
@click.option("--axis", "axes", multiple=True,
              help="name=min:max:points[:log|lin], name in {delta, alpha, beta, n}")
@click.option("--n", "n_spec", default=None, help="fixed qubit count")
@click.option("--alpha", type=float, default=None)
@click.option("--beta", type=float, default=None)
@click.option("--delta", type=float, default=None)
@click.option("--couple-alpha", is_flag=True,
              help="derive alpha from delta via ||A(1) - XH|| = delta")
@click.option("--alloc", type=click.Choice(["uniform", "2to1"]), default="2to1")
@click.option("--order", type=click.Choice(["optimal", "random", "identity"]),
              default="optimal")
@click.option("--trials", type=click.IntRange(min=1), default=1)
@click.option("--seed", type=int, default=0)
@click.option("--threads", type=click.IntRange(min=1), default=1)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def sweep(axes, n_spec, alpha, beta, delta, couple_alpha, alloc, order,
          trials, seed, threads, out) -> None:
    """Grid sweep writing one CSV row per point per trial."""
    if len(axes) > 2:
        raise click.UsageError("at most two axes (heatmap limit)")
    try:
        grids = [_parse_axis(a) for a in axes]
    except ValueError as exc:
        raise click.UsageError(str(exc))
    fixed = {"alpha": alpha, "beta": beta, "delta": delta,
             "n": _ints(n_spec, 1, "--n")[0] if n_spec else None}
    _check_overrides([name for name, _ in grids], fixed, couple_alpha)
    if not grids:
        grids = [("delta", np.array([delta if delta is not None else 1e-6]))]

    points = []
    shape = [len(g[1]) for g in grids]
    for flat in range(int(np.prod(shape))):
        coords = np.unravel_index(flat, shape)
        params = dict(fixed)
        for (name, values), c in zip(grids, coords):
            params[name] = float(values[c]) if name != "n" else int(values[c])
        points.append((flat, params))

    def run_point(item):
        flat, params = item
        rows = []
        for trial in range(trials):
            point_seed = (seed ^ flat) + trial
            rows.append(_sweep_row(params, couple_alpha, alloc, order,
                                   point_seed))
        return flat, rows

    try:
        if threads > 1:
            with concurrent.futures.ThreadPoolExecutor(threads) as pool:
                results = list(pool.map(run_point, points))
        else:
            results = [run_point(p) for p in points]
    except simulator.CapacityError as exc:
        _fail(EXIT_CAPACITY, str(exc))
    except ParameterError as exc:
        raise click.UsageError(str(exc))
    results.sort(key=lambda r: r[0])
    all_rows = [row for _, rows in results for row in rows]
    if out:
        _append_csv(out, all_rows, header=True)
    else:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(CSV_COLUMNS)
        writer.writerows(all_rows)
        click.echo(buf.getvalue(), nl=False)


def _check_overrides(names, fixed, couple_alpha) -> None:
    """Reject a ``sweep`` value that an axis or --couple-alpha would replace."""
    if len(set(names)) != len(names):
        raise click.UsageError(f"two axes named {names[0]!r}")
    for name in names:
        if fixed[name] is not None:
            raise click.BadParameter(f"conflicts with the {name} axis",
                                     param_hint=f"--{name}")
    if couple_alpha:
        for name in ("alpha", "beta"):
            if fixed[name] is not None or name in names:
                raise click.UsageError(
                    f"--couple-alpha derives alpha; give no {name} value "
                    "or axis")


def _sweep_row(params, couple_alpha, alloc, order, point_seed):
    delta = params.get("delta")
    alpha = params.get("alpha")
    beta = params.get("beta")
    n = params.get("n")
    if couple_alpha:
        if delta is None:
            raise ParameterError("--couple-alpha needs a delta value or axis")
        alpha = optimizer.alpha_matching_gate_error(delta)
    if delta is None:
        raise ParameterError("sweep needs a delta value or axis")
    if alpha is None and beta is None:
        raise ParameterError("sweep needs alpha, beta, or --couple-alpha")
    if n is None:
        if alpha is None:
            raise ParameterError("beta sweeps need an explicit --n")
        n = optimizer.qubit_threshold(alpha, delta)
    spec = GaussianSpec(n_qubits=n, alpha=alpha, beta=beta, gate_error=delta)
    report = resources.estimate(spec, seed=point_seed, order=order, alloc=alloc)
    return [report.n_qubits,
            beta if beta is not None else report.alpha,
            report.delta, report.l2_error, report.subnormalization,
            report.expected_t_depth, len(report.layer_probs), point_seed]


def _parse_axis(text: str):
    name, _, rest = text.partition("=")
    parts = rest.split(":")
    if name not in ("delta", "alpha", "beta", "n") or len(parts) not in (3, 4):
        raise ValueError(f"bad axis spec {text!r}")
    lo, hi, points = float(parts[0]), float(parts[1]), int(parts[2])
    scale = parts[3] if len(parts) == 4 else "log"
    if points < 1:
        raise ValueError("axis needs at least one point")
    if points == 1:
        values = np.array([lo])
    elif scale == "log":
        values = np.geomspace(lo, hi, points)
    elif scale == "lin":
        values = np.linspace(lo, hi, points)
    else:
        raise ValueError(f"bad axis scale {scale!r}")
    if name == "n":
        values = np.round(values).astype(int)
    return name, values


def _append_csv(path, rows, header: bool = False) -> None:
    import os

    new_file = not os.path.exists(path)
    with open(path, "a", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if new_file:
            writer.writerow(CSV_COLUMNS)
        writer.writerows(rows)


if __name__ == "__main__":
    main()
