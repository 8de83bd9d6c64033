"""Command-line surface: classify, table, verify, figures.

Output is deterministic byte-for-byte for a fixed invocation: no timestamps,
fixed orderings, and a fixed seed for the representative-point sampling.

Exit codes: 0 success, 1 identity failure, 2 bad input, 3 internal
assertion (oracle disagreement or span mismatch).
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import sys
from fractions import Fraction
from functools import cache

from .errors import DensymError, SpanMismatchError, SpanNotClosedError
from .identities import (
    CATALOG_HOMES, CheckConfig, IDENTITIES, check_catalog_op, reject_unread, run_identity,
)
from .operators import second_analog_mu
from .recurrence import EXCEPTIONAL_LOCI, HYPERBOLA, LOCUS_LINES, classify, sweep
from .rings import CIRCLE, LINE, format_rat

OUTDIR_ENV = "DENSYM_OUT"

_RAT_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")


def parse_rational(text: str) -> Fraction:
    """Accept only integers and p/q; decimal input is rejected as inexact."""
    text = text.strip()
    if not _RAT_RE.match(text):
        raise ValueError(
            f"not an exact rational: {text!r} (use p/q or an integer)"
        )
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


# every shared flag: (option strings, argparse keywords); the dest is the key
FLAGS = {
    "order": (("-k", "--order"), {"type": int, "help": "operator order k"}),
    "lam": (("--lambda",), {"help": "source weight, as p/q"}),
    "mu": (("--mu",), {"help": "target weight, as p/q"}),
    "space": (("--space",), {"choices": [CIRCLE, LINE]}),
    "truncation": (("-M", "--truncation"), {
        "type": int, "help": "coefficient degree / frequency window "
                             "(default k+6; 8 for a bilinear map)"}),
    "fmt": (("--format",), {"choices": ["json", "csv"]}),
    "out": (("-o", "--out"), {"help": "output file or directory"}),
    "config": (("--config",), {"help": "key=value file mirroring the flags"}),
}


def _add_flags(p, *names):
    """Give a subcommand the shared flags it reads, plus -o and --config."""
    for name in (*names, "out", "config"):
        options, kwargs = FLAGS[name]
        p.add_argument(*options, dest=name, default=None, **kwargs)


@cache
def build_parser():
    """The densym parser, built once per process: parse_args leaves it as it
    was, so every main call reads the same one."""
    parser = argparse.ArgumentParser(
        prog="densym",
        description="Exact symmetry calculus for modules of differential "
                    "operators on tensor densities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify one module")
    _add_flags(p, "order", "lam", "mu", "space")

    p = sub.add_parser("table", help="reproduce the dimension table")
    _add_flags(p, "order", "space", "fmt")
    p.add_argument("--samples", type=int, default=3)
    p.add_argument("--no-kinds", action="store_true",
                   help="dimensions only (faster)")

    p = sub.add_parser("verify", help="run a named exact identity check")
    _add_flags(p, "order", "lam", "mu", "space", "truncation")
    what = p.add_mutually_exclusive_group()
    what.add_argument("identity", nargs="?", default=None)
    what.add_argument("--op", default=None,
                      help="equivariance check of one cataloged map")
    what.add_argument("--list", action="store_true", help="list known names")

    p = sub.add_parser("figures", help="emit the exceptional loci for one order")
    _add_flags(p, "order")
    return parser


# a --config key is a flag's long or short name without its dashes
CONFIG_KEYS = ("k", "order", "lambda", "mu", "space", "M", "truncation",
               "format", "out", "samples")


def config_argv(path):
    """The key=value lines of a --config file as the flags they mirror, so
    that argparse checks them as it checks the command line."""
    argv = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = (part.strip() for part in line.partition("="))
            if key not in CONFIG_KEYS:
                raise ValueError(f"unknown config key {key!r}")
            argv.append(f"{'-' if len(key) == 1 else '--'}{key}={value}")
    return argv


def _write(text: str, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def cmd_classify(args) -> int:
    if args.order is None or args.lam is None or args.mu is None:
        raise ValueError("classify needs -k, --lambda and --mu")
    lam, mu = parse_rational(args.lam), parse_rational(args.mu)
    space = args.space or CIRCLE
    report = classify(args.order, lam, mu, space)
    _write(report.to_json(), args.out)
    return 0


def cmd_table(args) -> int:
    kmax = args.order if args.order is not None else 6
    space = args.space or CIRCLE
    rows = sweep(kmax=kmax, space=space, samples=args.samples,
                 with_kinds=not args.no_kinds)
    fmt = args.fmt or "csv"
    if fmt == "json":
        _write(json.dumps(rows, sort_keys=True, indent=2), args.out)
        return 0
    buf = io.StringIO()
    writer = csv.writer(buf)
    header = ["row", "points"] + [f"k={k}" for k in range(kmax + 1)]
    if not args.no_kinds:
        header += [f"kind k={k}" for k in range(kmax + 1)]
    writer.writerow(header)
    for row in rows:
        points = ";".join(f"({l},{m})" for l, m in row["points"])
        record = [row["row"], points] + [str(d) for d in row["dims"]]
        if not args.no_kinds:
            record += row["kinds"]
        writer.writerow(record)
    _write(buf.getvalue(), args.out)
    return 0


def cmd_verify(args) -> int:
    cfg = CheckConfig(
        k=args.order,
        lam=None if args.lam is None else parse_rational(args.lam),
        mu=None if args.mu is None else parse_rational(args.mu),
        space=args.space,
        M=args.truncation,
    )
    if args.list:
        reject_unread(cfg, "verify --list", "lists the check names",
                      "k", "lam", "mu", "space", "M")
        names = sorted(IDENTITIES) + sorted(f"op:{n}" for n in CATALOG_HOMES)
        _write("\n".join(names) + "\n", args.out)
        return 0
    if args.op:
        result = check_catalog_op(args.op, cfg)
    elif args.identity:
        result = run_identity(args.identity, cfg)
    else:
        raise ValueError("verify needs an identity name or --op NAME")
    _write(result.line() + "\n", args.out)
    return 0 if result.passed else 1


# ----------------------------------------------------------------------
# figures: exceptional loci in the weight plane
# ----------------------------------------------------------------------

WINDOW = (-3.0, 2.5, -2.5, 4.0)  # lam_min, lam_max, mu_min, mu_max
SIZE = 640.0


def _to_screen(lam: float, mu: float):
    l0, l1, m0, m1 = WINDOW
    x = (lam - l0) / (l1 - l0) * SIZE
    y = SIZE - (mu - m0) / (m1 - m0) * SIZE
    return x, y


def _clip_line(a, b, c):
    """Segment of a*lam + b*mu = c inside the window, as endpoints."""
    l0, l1, m0, m1 = WINDOW
    pts = []
    if b != 0:
        for lam in (l0, l1):
            mu = (c - a * lam) / b
            if m0 - 1e-9 <= mu <= m1 + 1e-9:
                pts.append((lam, mu))
    if a != 0:
        for mu in (m0, m1):
            lam = (c - b * mu) / a
            if l0 - 1e-9 <= lam <= l1 + 1e-9:
                pts.append((lam, mu))
    uniq = []
    for p in pts:
        if all(abs(p[0] - q[0]) + abs(p[1] - q[1]) > 1e-9 for q in uniq):
            uniq.append(p)
    return uniq[:2] if len(uniq) >= 2 else None


def _hyperbola_paths(n: int = 160):
    """The two branches of the order-3 hyperbola inside the window."""
    l0, l1, m0, m1 = WINDOW
    paths = []
    for lo, hi in ((l0, -1.0 / 3 - 1e-3), (-1.0 / 3 + 1e-3, l1)):
        pts = []
        for i in range(n + 1):
            lam = lo + (hi - lo) * i / n
            mu = second_analog_mu(3, lam)
            if m0 <= mu <= m1:
                pts.append((lam, mu))
        if len(pts) >= 2:
            paths.append(pts)
    return paths


def figure_svg(k: int) -> str:
    loci = EXCEPTIONAL_LOCI[k]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(SIZE)}" '
        f'height="{int(SIZE)}" viewBox="0 0 {int(SIZE)} {int(SIZE)}">',
        f'<rect width="{int(SIZE)}" height="{int(SIZE)}" fill="white"/>',
    ]
    # axes
    for a, b, c in ((1, 0, 0), (0, 1, 0)):
        seg = _clip_line(a, b, c)
        if seg:
            (x1, y1), (x2, y2) = (_to_screen(*p) for p in seg)
            parts.append(
                f'<line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" y2="{y2:.1f}" '
                f'stroke="#bbbbbb" stroke-width="1"/>'
            )
    for name in loci["lines"]:
        seg = _clip_line(*LOCUS_LINES[name])
        if seg:
            (x1, y1), (x2, y2) = (_to_screen(*p) for p in seg)
            parts.append(
                f'<line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" y2="{y2:.1f}" '
                f'stroke="#1f6fb2" stroke-width="1.5"/>'
            )
            lx, ly = _to_screen(*seg[0])
            parts.append(
                f'<text x="{min(max(lx, 12), SIZE - 90):.1f}" '
                f'y="{min(max(ly - 4, 12), SIZE - 6):.1f}" font-size="11" '
                f'fill="#1f6fb2">{name}</text>'
            )
    if loci["hyperbola"]:
        for pts in _hyperbola_paths():
            coords = " ".join(
                f"{x:.1f},{y:.1f}" for x, y in (_to_screen(*p) for p in pts)
            )
            parts.append(
                f'<polyline points="{coords}" fill="none" stroke="#b23a1f" '
                f'stroke-width="1.5"/>'
            )
        parts.append(
            '<text x="12" y="24" font-size="11" fill="#b23a1f">'
            f'{HYPERBOLA.replace(")*(", ")(")}</text>'
        )
    for lam, mu in loci["points"]:
        lam_s, mu_s = format_rat(lam), format_rat(mu)
        x, y = _to_screen(float(lam), float(mu))
        parts.append(
            f'<circle cx="{x:.1f}" cy="{y:.1f}" r="4" fill="#222222"/>'
        )
        parts.append(
            f'<text x="{x + 6:.1f}" y="{y - 6:.1f}" font-size="10" '
            f'fill="#222222">({lam_s},{mu_s})</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def figure_csv(k: int) -> str:
    loci = EXCEPTIONAL_LOCI[k]
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["kind", "equation", "lambda", "mu"])
    for name in loci["lines"]:
        writer.writerow(["line", name, "", ""])
    if loci["hyperbola"]:
        writer.writerow(["hyperbola", HYPERBOLA, "", ""])
    for lam, mu in loci["points"]:
        writer.writerow(["point", "", format_rat(lam), format_rat(mu)])
    return buf.getvalue()


def cmd_figures(args) -> int:
    k = args.order
    if k not in EXCEPTIONAL_LOCI:
        raise ValueError(f"figures support k in {sorted(EXCEPTIONAL_LOCI)}, got {k}")
    outdir = args.out or os.environ.get(OUTDIR_ENV) or "."
    os.makedirs(outdir, exist_ok=True)
    svg_path = os.path.join(outdir, f"loci_k{k}.svg")
    csv_path = os.path.join(outdir, f"loci_k{k}.csv")
    with open(svg_path, "w", encoding="utf-8") as fh:
        fh.write(figure_svg(k))
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(figure_csv(k))
    sys.stdout.write(svg_path + "\n" + csv_path + "\n")
    return 0


COMMANDS = {
    "classify": cmd_classify,
    "table": cmd_table,
    "verify": cmd_verify,
    "figures": cmd_figures,
}


def _join_rational_flags(argv):
    """Rewrite ['--lambda', '-1/2'] as ['--lambda=-1/2'] so argparse does not
    mistake negative rationals for option names."""
    out = []
    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg in ("--lambda", "--mu") and i + 1 < len(argv):
            out.append(f"{arg}={argv[i + 1]}")
            i += 2
        else:
            out.append(arg)
            i += 1
    return out


def main(argv=None) -> int:
    """Run one densym command and return its exit code (see the module
    docstring).  The parser is build_parser's one instance; a --config file's
    flags are parsed before the command line's, which win."""
    parser = build_parser()
    argv = _join_rational_flags(list(sys.argv[1:] if argv is None else argv))
    args = parser.parse_args(argv)
    try:
        if args.config:  # after the file's flags, so the command line wins
            args = parser.parse_args(argv[:1] + config_argv(args.config) + argv[1:])
        return COMMANDS[args.command](args)
    except (SpanMismatchError, SpanNotClosedError) as exc:
        print(f"internal assertion failed: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, DensymError, OSError) as exc:
        # str() of a KeyError is the repr of its message, quotes included
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
