"""Independent numerical oracles used by the test suite.

These deliberately avoid the library's own code paths: the column
deflection is solved as the governing boundary-value ODE by finite
differences, the allowable load by a damped fixed-point iteration, and the
Monte Carlo MTTF in one shot from the topology document. The CLI's
parser is built whole, every subcommand with every flag, as the reference
for the parser the CLI builds for one argv.
"""

import math

import numpy as np
from scipy.linalg import solve_banded


def ode_midspan_deflection(load, modulus, inertia, eccentricity, length, nodes=4001):
    """Midspan deflection of y'' + (P/EI) y = -(P e)/(EI), y(0) = y(L) = 0.

    Central finite differences on a uniform grid, banded solve.
    """
    ksq = load / (modulus * inertia)
    x = np.linspace(0.0, length, nodes)
    h = x[1] - x[0]
    n = nodes - 2  # interior unknowns
    banded = np.zeros((3, n))
    banded[0, 1:] = 1.0 / h**2
    banded[1, :] = -2.0 / h**2 + ksq
    banded[2, :-1] = 1.0 / h**2
    rhs = np.full(n, -ksq * eccentricity)
    interior = solve_banded((1, 1), banded, rhs)
    full = np.zeros(nodes)
    full[1:-1] = interior
    return float(np.interp(length / 2.0, x, full))


def fixed_point_allowable_load(area, gyration, height, ecc_ratio, s_yc, modulus,
                               rel_tol=1e-12, max_iter=200000):
    """Damped fixed-point solve of P = A*S_yc / (1 + r*sec((l/2k) sqrt(P/AE)))."""
    p_buckle = area * modulus * (math.pi * gyration / height) ** 2
    load = 0.1 * p_buckle
    for _ in range(max_iter):
        arg = (height / (2 * gyration)) * math.sqrt(load / (area * modulus))
        proposal = area * s_yc / (1 + ecc_ratio / math.cos(arg))
        updated = 0.5 * (load + proposal)
        if abs(updated - load) <= rel_tol * updated:
            return updated
        load = updated
    raise AssertionError("fixed-point oracle failed to converge")


def empirical_cdf_distance(samples, cdf):
    """Kolmogorov-Smirnov distance between samples and a scalar CDF."""
    ordered = np.sort(np.asarray(samples))
    n = len(ordered)
    theoretical = np.array([cdf(t) for t in ordered])
    upper = np.abs(np.arange(1, n + 1) / n - theoretical).max()
    lower = np.abs(np.arange(0, n) / n - theoretical).max()
    return max(upper, lower)


def one_shot_mttf(doc, samples, seed):
    """Monte Carlo MTTF of a topology document with every draw held at once.

    One Philox stream keyed by the seed hands each leaf, in depth-first
    order, a block of `samples` uniforms; groups fold by vstack and
    min/max; the moments are numpy's mean and ddof=1 std over all samples.
    Returns (mean, standard error).
    """
    rng = np.random.Generator(np.random.Philox(key=seed))

    def failure_times(node):
        (tag, body), = node.items()
        if tag == "component":
            (kind, params), = body["model"].items()
            u = rng.random(samples)
            if kind == "exponential":
                return -np.log1p(-u) / params["rate"]
            if kind == "weibull":
                return params["eta"] * (-np.log1p(-u)) ** (1.0 / params["beta"])
            return np.full(samples, float(params["life"]))
        stacked = np.vstack([failure_times(child) for child in body])
        return stacked.min(axis=0) if tag == "series" else stacked.max(axis=0)

    times = failure_times(doc)
    return float(times.mean()), float(times.std(ddof=1) / math.sqrt(samples))


def whole_parser():
    """The CLI parser with every subcommand and every flag, from cli.COMMANDS in one loop."""
    from dwtlife import cli

    parser = cli._Parser(
        prog="dwtlife", description="Ducted wind turbine lifing and maintenance engine"
    )
    top = parser.add_subparsers(dest="command", required=True)
    families = {}
    for path, (_, shared, flags, _) in cli.COMMANDS.items():
        family, _, name = path.partition(" ")
        if name and family not in families:
            family_parser = top.add_parser(family)
            families[family] = family_parser.add_subparsers(dest="subcommand", required=True)
        sub = families[family].add_parser(name) if name else top.add_parser(family)
        for flag, spec in cli._SHARED.items():
            if flag in shared:
                sub.add_argument(f"--{flag}", **spec)
        for flag, spec in flags.items():
            sub.add_argument(flag, **{key: value for key, value in spec.items() if key != "dim"})
        sub.set_defaults(path=path)
    return parser
