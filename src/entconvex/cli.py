"""Command-line front end: benchmark tables, curves, criterion runs, probe.

Subcommands
-----------
table      compare one embedded benchmark table against fresh computations
curve      entropy-vs-alpha grid for an ad-hoc pair (CSV, optional SVG)
criterion  single criterion evaluation for an ad-hoc pair
probe      randomized projector probe for an ad-hoc pair

Exit codes: 0 all rows agree, 1 a disagreement, 2 numerical/usage failure.
CSV output is deterministic for a fixed configuration and seed: header
row, comma separators, 12 significant digits.
"""

from __future__ import annotations

import argparse
import math
import sys

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


def merge_config(args: argparse.Namespace) -> argparse.Namespace:
    """Fill flags that were left at None from the config file, if any.

    Config keys are flag names without the dashes (``lambda``,
    ``alpha-steps``); a key that names no flag is a usage error.
    """
    if not getattr(args, "config", None):
        return args
    dests = _add_common(argparse.ArgumentParser())
    for key, val in load_config(args.config).items():
        if key not in dests:
            raise ValueError(f"unknown config key {key!r}")
        if getattr(args, dests[key]) is None:
            setattr(args, dests[key], val)
    return args


def _log_base(val) -> float:
    if val is None:
        return 2.0
    try:
        return LOG_BASES[str(val)]
    except KeyError:
        raise ValueError(f"log base must be one of {sorted(LOG_BASES)}") from None


def _int_or(val, default):
    return default if val is None else int(val)


def _float_or(val, default):
    return default if val is None else float(val)


def build_pair(args):
    """PairSpec from --model plus the per-model quantum-number flags."""
    from . import sweep

    model = args.model
    if model is None:
        raise ValueError("--model is required")
    if model == "angular":
        if args.l is None or args.L is None or args.M is None:
            raise ValueError("angular pairs need --l --L --M")
        return sweep.angular_pair(
            int(args.l), int(args.L), int(args.M),
            None if args.Mprime is None else int(args.Mprime),
        )
    if model == "oscillator":
        from .oscillator import OscBasisSpec, OscState

        if None in (args.n, args.m, args.l, args.p):
            raise ValueError("oscillator pairs need --n --m --l --p")
        lam = _float_or(args.lam, 0.0)
        n, m, l, p = int(args.n), int(args.m), int(args.l), int(args.p)
        s0 = OscState(n, m, l, p, lam)
        s1 = OscState(
            _int_or(args.n2, n), _int_or(args.m2, -m),
            _int_or(args.l2, l), _int_or(args.p2, -p), lam,
        )
        basis = None
        if args.basis_size is not None:
            basis = OscBasisSpec(n_per_coordinate=int(args.basis_size))
        return sweep.oscillator_pair(s0, s1, basis)
    if model == "spherium":
        if args.M is None:
            raise ValueError("spherium pairs need --M")
        return sweep.spherium_pair(
            int(args.M),
            None if args.Mprime is None else int(args.Mprime),
            lmax=None if args.lmax is None else int(args.lmax),
        )
    if model == "lg":
        from .lgmodes import LGMode

        if args.l is None or args.m is None:
            raise ValueError("lg pairs need --l --m")
        l, m = int(args.l), int(args.m)
        mode0 = LGMode(l, m)
        mode1 = LGMode(_int_or(args.l2, l), _int_or(args.m2, -m))
        return sweep.lg_pair(
            mode0, mode1,
            n_basis=None if args.basis_size is None else int(args.basis_size),
        )
    raise ValueError(f"unknown model {model!r}")


# ---------------------------------------------------------------------------
# subcommands


def cmd_table(args) -> int:
    from .benchmarks import evaluate_table

    res = evaluate_table(
        int(args.table_id),
        value_tol=_float_or(args.tol, 5e-3),
        grid_size=_int_or(args.alpha_steps, 41),
        log_base=None if args.log_base is None else _log_base(args.log_base),
    )
    header = [
        "pair", "s_vn", "s_ns", "s_r", "qc",
        "convexity_observed", "convexity_reference", "agree", "log_base_used",
    ]
    rows = []
    for r in res.rows:
        rows.append([
            r.row.pair.label.replace(",", ";"),
            r.report.s0, r.report.s_ns, r.report.s_r, r.report.qc,
            r.observed.label if r.observed else "",
            r.row.convexity, int(r.agree), res.log_base,
        ])
    _write_csv(args.out, header, rows)
    return 0 if res.agree else 1


def cmd_curve(args) -> int:
    from .sweep import entropy_curve

    pair = build_pair(args)
    curve = entropy_curve(pair, _int_or(args.alpha_steps, 41), _log_base(args.log_base))
    _write_csv(args.out, ["alpha", "entropy"], [list(t) for t in zip(curve.alphas, curve.entropies)])
    if args.svg:
        write_svg(args.svg, curve.alphas, curve.entropies, curve.s0, curve.s1)
    return 0


def cmd_criterion(args) -> int:
    from .sweep import criterion_vs_observation

    pair = build_pair(args)
    rec = criterion_vs_observation(pair, _int_or(args.alpha_steps, 41), _log_base(args.log_base))
    rep = rec.report
    agree = "" if rec.agree is None else int(rec.agree)
    _write_csv(
        args.out,
        ["pair", "s_vn", "s1", "s_ns", "s_r", "qc", "convexity_observed", "agree"],
        [[pair.label.replace(",", ";"), rep.s0, rep.s1, rep.s_ns, rep.s_r, rep.qc,
          rec.observed.label, agree]],
    )
    return 0 if rec.agree is not False else 1


def cmd_probe(args) -> int:
    from .criterion import random_projector_probe

    pair = build_pair(args)
    rec = random_projector_probe(
        pair.builder(1.0), pair.builder(0.0),
        samples=_int_or(args.samples, 10_000),
        seed=_int_or(args.seed, 0),
        log_base=_log_base(args.log_base),
    )
    rows = [[n, v, rec.bound] for n, v in rec.checkpoints]
    _write_csv(args.out, ["samples_so_far", "min_s_minus_2stilde", "bound_s_minus_2sns"], rows)
    return 0 if rec.min_value >= rec.bound - 1e-9 else 1


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(p: argparse.ArgumentParser) -> dict[str, str]:
    """Add the flags every subcommand shares; return config key -> dest.

    A config key is a flag without its dashes, with '-' read as '_'
    (``--alpha-steps`` -> ``alpha_steps``, ``--lambda`` -> ``lambda``).
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
        add("--alpha-steps", type=int),
        add("--log-base", choices=sorted(LOG_BASES)),
        add("--lmax", type=int),
        add("--basis-size", type=int),
        add("--samples", type=int),
        add("--seed", type=int),
        add("--tol", type=float),
        add("--out", help="CSV path ('-' or omitted: stdout)"),
        add("--svg", help="SVG path for the curve plot"),
    ]
    return {
        flag.lstrip("-").replace("-", "_"): action.dest
        for action in actions
        for flag in action.option_strings
    }


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entconvex",
        description="Entropy convexity of degenerate-pair superpositions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table", help="run one embedded benchmark table")
    p.add_argument("table_id", type=int, choices=[1, 2, 3, 4, 5])
    _add_common(p)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("curve", help="entropy-vs-alpha grid for a pair")
    _add_common(p)
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("criterion", help="criterion evaluation for a pair")
    _add_common(p)
    p.set_defaults(func=cmd_criterion)

    p = sub.add_parser("probe", help="randomized projector probe for a pair")
    _add_common(p)
    p.set_defaults(func=cmd_probe)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        args = merge_config(args)
        alpha_steps = getattr(args, "alpha_steps", None)
        if alpha_steps is not None and int(alpha_steps) < 5:
            raise ValueError("--alpha-steps must be at least 5")
        return args.func(args)
    except (ValueError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
