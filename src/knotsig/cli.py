"""Command-line interface.

Subcommands::

    knotsig signature EXPR        step function as text, json, csv, or svg
    knotsig bounds EXPR           all lower bounds as text or json
    knotsig gordian EXPR1 EXPR2   Gordian distance bound (u2 of K # -J)
    knotsig clasp EXPR1 EXPR2     singular-concordance distance bound
    knotsig oracle-check          exhaustive move-lattice verification
    knotsig table                 list the built-in knots

Exit status: 0 on success, 1 on a computation error (bad knot name,
invalid matrix file, ...), 2 on a usage error.  Output goes to stdout or
to --output; a relative --output lands under $KNOTSIG_OUTPUT_DIR when that
is set.  A --config file of key=value lines may set oracle_range and
table_path (extra named Seifert matrices for expressions).  Only the four
commands that resolve expressions (signature, bounds, gordian, clasp) read
table_path, so a missing or invalid table fails them and nothing else.

Each command imports only the modules it runs: importing this module loads
no other knotsig module but errors, and oracle-check loads the lattice
search with the closed forms of bounds, not the signature stack.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import KnotsigError

TYPE_CHECKING = False
if TYPE_CHECKING:  # annotation names only; typing itself stays unloaded
    from .bounds import BoundReport
    from .seifert import SeifertMatrix
    from .signature import SignatureFunction


def _t_string(root, digits: int) -> str:
    if root.exact_t is not None:
        return f"{root.exact_t.numerator}/{root.exact_t.denominator}"
    from .certify import decimal_of_t

    return decimal_of_t(root.root, digits)


def _half(doubled: int) -> str:
    return str(doubled // 2) if doubled % 2 == 0 else f"{doubled}/2"


def report_to_text(rep: BoundReport, digits: int) -> str:
    from .intpoly import format_poly

    lines = []
    head = rep.expression if rep.other_expression is None else (
        f"{rep.expression}  vs  {rep.other_expression} (computed on K # -J)")
    lines.append(f"knot: {head}")
    lines.append(f"Seifert matrix size: {rep.matrix_size}")
    for fr in rep.factors:
        name = f"phi_{fr.cyclotomic}" if fr.cyclotomic else "factor"
        lines.append(f"{name} {format_poly(fr.invariants.factor)} (multiplicity {fr.multiplicity})")
        ts = ", ".join(
            f"{_t_string(bp.root, digits)} (J={bp.jump}, sigma={_half(bp.balanced2)})"
            for bp in fr.breakpoints)
        lines.append(f"  roots at t = {ts}")
        lines.append(f"  (J, S_min, S_max) = ({fr.invariants.jump_max}, "
                     f"{fr.invariants.sigma_min}, {fr.invariants.sigma_max})")
        lines.append(f"  signed changes: N >= {fr.signed.negative_to_positive} "
                     f"(neg->pos), P >= {fr.signed.positive_to_negative} (pos->neg); "
                     f"u >= {fr.u_factor}")
    lines.append(f"classical bound u1 = {rep.u1}")
    lines.append(f"combined bound  u2 = {rep.u2}")
    if rep.gordian is not None:
        lines.append(f"gordian distance >= {rep.gordian}")
    lines.append(f"clasp bound = {rep.clasp}")
    lines.append(f"four-genus bound g4 >= {rep.g4}")
    lines.append(f"non-balanced bound = {rep.nonbalanced}")
    lines.append(f"double-slice bound = {rep.double_slice}")
    return "\n".join(lines) + "\n"


def signature_to_csv(sf: SignatureFunction, digits: int) -> str:
    """Rows: plateau,t_lo,t_hi,value and breakpoint,t,jump,balanced_x2,nonbalanced."""
    ts = ["0"] + [_t_string(bp.root, digits) for bp in sf.breakpoints] + ["1/2"]
    lines = []
    for i, val in enumerate(sf.plateaus):
        lines.append(f"plateau,{ts[i]},{ts[i + 1]},{val}")
        if i < len(sf.breakpoints):
            bp = sf.breakpoints[i]
            nb = "" if bp.nonbalanced is None else bp.nonbalanced
            lines.append(f"breakpoint,{ts[i + 1]},{bp.jump},{bp.balanced2},{nb}")
    return "\n".join(lines) + "\n"


def signature_to_dict(sf: SignatureFunction, expression: str, digits: int) -> dict:
    from .bounds import root_to_dict

    return {
        "expression": expression,
        "plateaus": list(sf.plateaus),
        "breakpoints": [
            {
                "root": root_to_dict(bp.root, digits),
                "factor": list(bp.root.x_factor),
                "multiplicity": bp.multiplicity,
                "jump": bp.jump,
                "balanced_x2": bp.balanced2,
                "nonbalanced": bp.nonbalanced,
            }
            for bp in sf.breakpoints
        ],
    }


def signature_to_text(sf: SignatureFunction, expression: str, digits: int) -> str:
    lines = [f"signature step function of {expression} on t in (0, 1/2]"]
    ts = ["0"] + [_t_string(bp.root, digits) for bp in sf.breakpoints] + ["1/2"]
    for i, val in enumerate(sf.plateaus):
        lines.append(f"  ({ts[i]}, {ts[i + 1]}): {val}")
        if i < len(sf.breakpoints):
            bp = sf.breakpoints[i]
            lines.append(f"  at t = {ts[i + 1]}: jump {bp.jump}, balanced "
                         f"{bp.balanced2}/2, nonbalanced {bp.nonbalanced}")
    return "\n".join(lines) + "\n"


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    from .knotio import read_text

    out = {}
    text = read_text(path)
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise KnotsigError(f"{path}:{lineno}: expected key=value")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def _extra_table(config: dict) -> dict[str, SeifertMatrix]:
    """The table_path matrices by name; only commands that resolve
    expressions read them."""
    path = config.get("table_path")
    if not path:
        return {}
    from .knotio import read_seifert_file

    return dict(read_seifert_file(path))


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
        return
    from pathlib import Path

    path = Path(output)
    if not path.is_absolute():
        base = os.environ.get("KNOTSIG_OUTPUT_DIR")
        if base:
            path = Path(base) / path
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _nonnegative_int(text: str) -> int:
    """--precision and --margin: a nonnegative int; anything else is a usage
    error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="knotsig",
        description="Exact knot signature functions and unknotting bounds "
                    "from Seifert matrices.")
    parser.add_argument("--config", help="key=value file (oracle_range, table_path)")
    sub = parser.add_subparsers(dest="command", required=True)

    # the knot commands share one option block; only signature has csv/svg
    # output and a --precision help line, and gordian/clasp take two knots
    for name, helptext, formats, precision_help, two_knots in (
            ("signature", "signature step function of a knot", ("text", "json", "csv", "svg"),
             "certified decimal digits for algebraic angles", False),
            ("bounds", "all lower bounds for one knot", ("text", "json"), None, False),
            ("gordian", "Gordian distance bound for two knots", ("text", "json"), None, True),
            ("clasp", "singular-concordance (clasp) distance bound", ("text", "json"), None,
             True)):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("expression")
        if two_knots:
            p.add_argument("expression2")
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--precision", type=_nonnegative_int, default=6, help=precision_help)
        p.add_argument("--output", "-o")
        p.add_argument("--jobs", type=int, default=1)  # accepted and ignored: serial

    p_or = sub.add_parser("oracle-check", help="verify bound formulas by exhaustive search")
    p_or.add_argument("--range", type=int, default=None, dest="bound_range")
    p_or.add_argument("--margin", type=_nonnegative_int, default=6)
    p_or.add_argument("--format", choices=("text", "json"), default="text")
    p_or.add_argument("--output", "-o")

    p_tab = sub.add_parser("table", help="list built-in knots")
    p_tab.add_argument("--format", choices=("text", "json"), default="text")
    p_tab.add_argument("--output", "-o")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args, _load_config(args.config))
    except KnotsigError as e:
        stage = args.command if getattr(args, "command", None) else "setup"
        print(f"knotsig {stage}: error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"knotsig: i/o error: {e}", file=sys.stderr)
        return 1


def _oracle_range(bound_range: int | None, config: dict) -> int:
    """--range, else the config's oracle_range, else 8; KnotsigError unless
    it is a nonnegative integer."""
    if bound_range is not None:
        rng, source = bound_range, "--range"
    else:
        value = config.get("oracle_range", "8")
        try:
            rng = int(value)
        except ValueError:
            raise KnotsigError(f"oracle_range must be an integer, got {value!r}") from None
        source = "oracle_range"
    if rng < 0:
        raise KnotsigError(f"{source} must be nonnegative, got {rng}")
    return rng


def _dispatch(args, config: dict) -> int:
    from .knotio import render_report_json

    if args.command == "oracle-check":
        rng = _oracle_range(args.bound_range, config)
        from .oracle import exhaustive_check

        report = exhaustive_check(rng, margin=args.margin)
        if args.format == "json":
            text = render_report_json(report.to_dict())
        else:
            status = "ok" if report.ok else f"{len(report.mismatches)} MISMATCHES"
            text = (f"checked {report.states_checked} states with coordinates "
                    f"in [-{rng}, {rng}]: {status}\n")
            for m in report.mismatches:
                text += f"  {m.kind} mismatch at {m.state}: search {m.bfs} formula {m.formula}\n"
        _emit(text, args.output)
        return 0 if report.ok else 1

    if args.command == "table":
        from .intpoly import format_poly
        from .knot_table import table_rows

        rows = table_rows()
        if args.format == "json":
            data = [{"name": name, "size": V.size,
                     "alexander": list(delta),
                     "lowest_exponent": -(len(delta) - 1) // 2,
                     "signature_at_minus_one": sig}
                    for name, V, delta, sig in rows]
            text = render_report_json(data)
        else:
            lines = ["name      size  signature(-1)  alexander (symmetric form)"]
            for name, V, delta, sig in rows:
                low = -(len(delta) - 1) // 2
                lines.append(f"{name:<9} {V.size:>4}  {sig:>13}  x^{low} * ({format_poly(delta)})")
            text = "\n".join(lines) + "\n"
        _emit(text, args.output)
        return 0

    extra = _extra_table(config)

    if args.command == "signature":
        from .expressions import resolve
        from .signature import step_function

        sf = step_function(resolve(args.expression, extra))
        if args.format == "csv":
            text = signature_to_csv(sf, args.precision)
        elif args.format == "json":
            text = render_report_json(signature_to_dict(sf, args.expression, args.precision))
        elif args.format == "svg":
            from .plot import svg_step_plot

            text = svg_step_plot(sf, title=args.expression)
        else:
            text = signature_to_text(sf, args.expression, args.precision)
        _emit(text, args.output)
        return 0

    from .bounds import bound_report, gordian_report, report_to_dict

    if args.command == "bounds":
        rep = bound_report(args.expression, extra_table=extra)
        text = (render_report_json(report_to_dict(rep, args.precision))
                if args.format == "json" else report_to_text(rep, args.precision))
        _emit(text, args.output)
        return 0

    if args.command in ("gordian", "clasp"):
        rep = gordian_report(args.expression, args.expression2, extra_table=extra)
        if args.format == "json":
            d = report_to_dict(rep, args.precision)
            if args.command == "clasp":
                d["distance_kind"] = "clasp"
            text = render_report_json(d)
        else:
            text = report_to_text(rep, args.precision)
            if args.command == "clasp":
                text += "(reported as the clasp / singular concordance distance)\n"
        _emit(text, args.output)
        return 0

    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
