"""Command-line front end: benchmark tables, curves, criterion runs, probe.

Subcommands
-----------
table      compare one embedded benchmark table against fresh computations
curve      entropy-vs-alpha grid for an ad-hoc pair (CSV, optional SVG)
criterion  single criterion evaluation for an ad-hoc pair
probe      randomized projector probe for an ad-hoc pair

Exit codes: 0 all rows agree, 1 a disagreement, 2 numerical/usage failure.
A flag that the subcommand or the chosen model does not read is a usage
error, whether given on the command line or in a config file; ``READS``
declares what each subcommand reads.
CSV output is deterministic for a fixed configuration and seed: header
row, comma separators, 12 significant digits.  The library computes in
bits; ``--log-base`` only converts the printed entropies, so labels, Q_c
and exit codes do not depend on it.
"""

from __future__ import annotations

import argparse
import math
import sys

from .benchmarks import DEFAULT_VALUE_TOL, TABLE_IDS, bits_factor, evaluate_table, rescale_report
from .criterion import random_projector_probe
from .oscillator import NormDeficitError
from .sweep import (
    DEFAULT_GRID_SIZE,
    angular_pair,
    criterion_vs_observation,
    entropy_curve,
    lg_pair,
    oscillator_pair,
    spherium_pair,
)

LOG_BASES = {"2": 2.0, "e": math.e, "10": 10.0}


def _fmt(x) -> str:
    if isinstance(x, float):
        if x == 0.0:
            x = 0.0  # normalize -0.0
        return f"{x:.12g}"
    return str(x)


def _write_csv(path: str | None, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    text = "\n".join(lines) + "\n"
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def write_svg(path: str, alphas, entropies, s0: float, s1: float) -> None:
    """Minimal polyline plot of an entropy curve with its chord overlay."""
    w, h, pad = 640, 420, 48
    lo = min(min(entropies), min(s0, s1))
    hi = max(max(entropies), max(s0, s1))
    span = max(hi - lo, 1e-12)

    def px(a):
        return pad + a * (w - 2 * pad)

    def py(s):
        return h - pad - (s - lo) / span * (h - 2 * pad)

    curve = " ".join(f"{px(a):.2f},{py(s):.2f}" for a, s in zip(alphas, entropies))
    chord = f"{px(0.0):.2f},{py(s1):.2f} {px(1.0):.2f},{py(s0):.2f}"
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
        f'<line x1="{pad}" y1="{h - pad}" x2="{w - pad}" y2="{h - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{h - pad}" stroke="black"/>',
        f'<polyline points="{chord}" fill="none" stroke="gray" stroke-dasharray="6 4"/>',
        f'<polyline points="{curve}" fill="none" stroke="crimson" stroke-width="1.5"/>',
        f'<text x="{w // 2}" y="{h - 12}" font-size="13" text-anchor="middle">alpha</text>',
        f'<text x="14" y="{h // 2}" font-size="13" '
        f'transform="rotate(-90 14 {h // 2})" text-anchor="middle">entropy</text>',
        f'<text x="{pad}" y="{h - pad + 16}" font-size="11">0</text>',
        f'<text x="{w - pad}" y="{h - pad + 16}" font-size="11" text-anchor="end">1</text>',
        f'<text x="{pad - 6}" y="{py(lo):.0f}" font-size="11" text-anchor="end">{lo:.3g}</text>',
        f'<text x="{pad - 6}" y="{py(hi):.0f}" font-size="11" text-anchor="end">{hi:.3g}</text>',
        "</svg>",
    ]
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# configuration plumbing


def load_config(path: str) -> dict[str, str]:
    """Flat key=value file; blank lines and #-comments ignored."""
    out: dict[str, str] = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {raw.rstrip()}")
            key, val = line.split("=", 1)
            out[key.strip().replace("-", "_")] = val.strip()
    return out


def config_defaults(argv: list[str] | None) -> dict[str, str]:
    """The values of the ``--config`` file in ``argv``, keyed by flag dest.

    Config keys are flag names without the dashes (``lambda``,
    ``alpha-steps``); a key that names no flag is a usage error.  The
    values become the subcommand parser's defaults, so argparse converts
    and checks them as it does flag values, and explicit flags win.
    """
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    if not path:
        return {}
    dests = _add_common(argparse.ArgumentParser())
    out = {}
    for key, val in load_config(path).items():
        if key not in dests:
            raise ValueError(f"unknown config key {key!r}")
        out[dests[key]] = val
    return out


# the quantum-number and basis flags each model reads, by dest
MODEL_FLAGS = {
    "angular": ("l", "L", "M", "Mprime"),
    "oscillator": ("n", "m", "l", "p", "n2", "m2", "l2", "p2", "lam", "basis_size"),
    "spherium": ("M", "Mprime", "lmax"),
    "lg": ("l", "m", "l2", "m2", "basis_size"),
}

ALL_MODEL_FLAGS = tuple(sorted({d for dests in MODEL_FLAGS.values() for d in dests}))
PAIR_FLAGS = ("model", *ALL_MODEL_FLAGS, "log_base", "out", "config")
# the flags each subcommand reads, by dest; the others default to None, so a given one is seen
READS = {
    "table": ("tol", "alpha_steps", "log_base", "out", "config"),
    "curve": (*PAIR_FLAGS, "alpha_steps", "svg"),
    "criterion": (*PAIR_FLAGS, "alpha_steps"),
    "probe": (*PAIR_FLAGS, "samples", "seed"),
}


def reject_unread(args, dests, reader: str) -> None:
    """Raise a usage error naming every flag of ``dests`` that was given (is not None)."""
    given = ["--lambda" if d == "lam" else "--" + d.replace("_", "-")
             for d in dests if getattr(args, d) is not None]
    if given:
        raise ValueError(f"{reader} does not read {', '.join(given)}")


def build_pair(args):
    """PairSpec from --model plus the per-model quantum-number flags.

    A model flag that the chosen model does not read is a usage error.
    """
    model = args.model
    if model is None:
        raise ValueError("--model is required")
    if model not in MODEL_FLAGS:
        raise ValueError(f"unknown model {model!r}")
    reject_unread(args, sorted(set(ALL_MODEL_FLAGS) - set(MODEL_FLAGS[model])), f"the {model} model")
    if model == "angular":
        if args.l is None or args.L is None or args.M is None:
            raise ValueError("angular pairs need --l --L --M")
        return angular_pair(args.l, args.L, args.M, args.Mprime)
    if model == "oscillator":
        from .oscillator import OscBasisSpec, OscState

        if None in (args.n, args.m, args.l, args.p):
            raise ValueError("oscillator pairs need --n --m --l --p")
        lam = 0.0 if args.lam is None else args.lam
        s0 = OscState(args.n, args.m, args.l, args.p, lam)
        s1 = OscState(
            args.n if args.n2 is None else args.n2,
            -args.m if args.m2 is None else args.m2,
            args.l if args.l2 is None else args.l2,
            -args.p if args.p2 is None else args.p2,
            lam,
        )
        basis = None if args.basis_size is None else OscBasisSpec(n_per_coordinate=args.basis_size)
        return oscillator_pair(s0, s1, basis)
    if model == "spherium":
        if args.M is None:
            raise ValueError("spherium pairs need --M")
        return spherium_pair(args.M, args.Mprime, lmax=args.lmax)
    from .lgmodes import LGMode

    if args.l is None or args.m is None:
        raise ValueError("lg pairs need --l --m")
    mode1 = LGMode(
        args.l if args.l2 is None else args.l2,
        -args.m if args.m2 is None else args.m2,
    )
    return lg_pair(LGMode(args.l, args.m), mode1, n_basis=args.basis_size)


# ---------------------------------------------------------------------------
# subcommands


def cmd_table(args) -> int:
    res = evaluate_table(args.table_id, args.tol, args.alpha_steps, args.log_base)
    header = [
        "pair", "s_vn", "s_ns", "s_r", "qc",
        "convexity_observed", "convexity_reference", "agree", "log_base_used",
    ]
    rows = []
    for r in res.rows:
        rows.append([
            r.row.pair.label.replace(",", ";"),
            r.report.s0, r.report.s_ns, r.report.s_r, r.report.qc,
            r.observed.label, r.row.convexity, int(r.agree), res.log_base,
        ])
    _write_csv(args.out, header, rows)
    return 0 if res.agree else 1


def cmd_curve(args) -> int:
    curve = entropy_curve(build_pair(args), args.alpha_steps)
    f = bits_factor(args.log_base)
    entropies = [s * f for s in curve.entropies]
    _write_csv(args.out, ["alpha", "entropy"], [list(t) for t in zip(curve.alphas, entropies)])
    if args.svg:
        write_svg(args.svg, curve.alphas, entropies, curve.s0 * f, curve.s1 * f)
    return 0


def cmd_criterion(args) -> int:
    pair = build_pair(args)
    rec = criterion_vs_observation(pair, args.alpha_steps)
    rep = rescale_report(rec.report, args.log_base)
    agree = "" if rec.agree is None else int(rec.agree)
    _write_csv(
        args.out,
        ["pair", "s_vn", "s1", "s_ns", "s_r", "qc", "convexity_observed", "agree"],
        [[pair.label.replace(",", ";"), rep.s0, rep.s1, rep.s_ns, rep.s_r, rep.qc,
          rec.observed.label, agree]],
    )
    return 0 if rec.agree is not False else 1


def cmd_probe(args) -> int:
    pair = build_pair(args)
    rec = random_projector_probe(
        pair.builder(1.0), pair.builder(0.0),
        samples=args.samples, seed=args.seed,
    )
    f = bits_factor(args.log_base)
    rows = [[n, v * f, rec.bound * f] for n, v in rec.checkpoints]
    _write_csv(args.out, ["samples_so_far", "min_s_minus_2stilde", "bound_s_minus_2sns"], rows)
    return 0 if rec.min_value >= rec.bound - 1e-9 else 1


# ---------------------------------------------------------------------------
# argument parsing


def _log_base(val: str) -> float:
    try:
        return LOG_BASES[val]
    except KeyError:
        raise argparse.ArgumentTypeError(f"log base must be one of {sorted(LOG_BASES)}") from None


def _add_common(p: argparse.ArgumentParser) -> dict[str, str]:
    """Add the flags every subcommand shares; return config key -> dest.

    A config key is a flag without its dashes, with '-' read as '_'
    (``--alpha-steps`` -> ``alpha_steps``, ``--lambda`` -> ``lambda``).
    A flag defaults to None where the model or the first state supplies
    the value.
    """
    add = p.add_argument
    actions = [
        add("--config", help="key=value config file; flags override it"),
        add("--model", choices=["angular", "oscillator", "spherium", "lg"]),
        add("--l", type=int),
        add("--L", type=int),
        add("--M", type=int),
        add("--Mprime", type=int),
        add("--m", type=int),
        add("--p", type=int),
        add("--n", type=int),
        add("--n2", type=int),
        add("--m2", type=int),
        add("--l2", type=int),
        add("--p2", type=int),
        add("--lambda", dest="lam", type=float),
        add("--alpha-steps", type=int, default=DEFAULT_GRID_SIZE),
        add("--log-base", type=_log_base, default=2.0, metavar="{2,e,10}"),
        add("--lmax", type=int),
        add("--basis-size", type=int),
        add("--samples", type=int, default=10_000),
        add("--seed", type=int, default=0),
        add("--tol", type=float, default=DEFAULT_VALUE_TOL),
        add("--out", help="CSV path ('-' or omitted: stdout)"),
        add("--svg", help="SVG path for the curve plot"),
    ]
    return {
        flag.lstrip("-").replace("-", "_"): action.dest
        for action in actions
        for flag in action.option_strings
    }


def make_parser(defaults: dict[str, str]) -> argparse.ArgumentParser:
    """The CLI parser; ``defaults`` (config values by dest) override the flags' own."""
    parser = argparse.ArgumentParser(
        prog="entconvex",
        description="Entropy convexity of degenerate-pair superpositions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, text in [
        ("table", cmd_table, "run one embedded benchmark table"),
        ("curve", cmd_curve, "entropy-vs-alpha grid for a pair"),
        ("criterion", cmd_criterion, "criterion evaluation for a pair"),
        ("probe", cmd_probe, "randomized projector probe for a pair"),
    ]:
        p = sub.add_parser(name, help=text)
        unread = sorted(set(_add_common(p).values()) - set(READS[name]))
        p.set_defaults(func=func, unread=unread, **dict.fromkeys(unread))
        if name == "table":
            p.add_argument("table_id", type=int, choices=TABLE_IDS)
            p.set_defaults(log_base=None)  # detected per table
        p.set_defaults(**defaults)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = make_parser(config_defaults(argv)).parse_args(argv)
        reject_unread(args, args.unread, f"entconvex {args.command}")
        if args.alpha_steps is not None and args.alpha_steps < 5:
            raise ValueError("--alpha-steps must be at least 5")
        return args.func(args)
    except NormDeficitError as exc:  # only the oscillator flags reach one
        print(f"error: {exc} with --basis-size", file=sys.stderr)
        return 2
    except (ValueError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
