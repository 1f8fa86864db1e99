"""Command line front end.

Exit codes are a stable contract: 0 success, 1 a structural claim
failed on the given instance or during verification, 2 usage or parse
trouble (including budget overruns), 3 unmet precondition such as a
non-distributive lattice.
"""

from __future__ import annotations

import argparse
import json
import sys

from .decomposition import decompose
from .errors import (BudgetError, InputError, MaxitiveError,
                     PreconditionError)
from .harness import Bounds, run_all, run_theorem, VerificationReport
from .instances import load_instance, serialize_space
from .topology import enumerate_topologies


def _parse_bounds(text, seed):
    default = Bounds()
    vals = {"n": default.max_points, "lattice": default.max_lattice,
            "countable": default.countable_chain}
    if text:
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            key, eq, raw = part.partition("=")
            key = key.strip()
            if not eq or key not in vals:
                raise InputError(f"bounds take n=, lattice=, countable=; "
                                 f"got {part!r}")
            try:
                vals[key] = int(raw)
            except ValueError:
                raise InputError(f"bounds value for {key!r} must be an "
                                 f"integer") from None
    return Bounds(max_points=vals["n"], max_lattice=vals["lattice"],
                  countable_chain=vals["countable"], seed=seed).validate()


def _emit(payload, fmt, render):
    if fmt == "json":
        sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    else:
        sys.stdout.write(render(payload))


def cmd_analyze(args):
    measure = load_instance(args.instance)
    record = measure.classify()
    info = measure.upper_density()
    payload = {
        "schema": "maxitive-analysis/1",
        "classification": record.as_dict(),
        "upper_density": {
            "values": measure.backend.density_payload(measure, info.values),
            "usc": info.usc, "upper_compact": info.upper_compact},
        "notes": measure.backend.notes(measure),
    }

    def render(p):
        lines = ["classification:"]
        for k in sorted(p["classification"]):
            lines.append(f"  {k:<24} {str(p['classification'][k]).lower()}")
        ud = p["upper_density"]
        lines.append(f"upper density (usc={str(ud['usc']).lower()}, "
                     f"upper_compact={str(ud['upper_compact']).lower()}):")
        lines.extend(measure.backend.density_lines(ud["values"]))
        lines.append("notes:")
        for note in p["notes"]:
            lines.append(f"  - {note}")
        return "\n".join(lines) + "\n"

    _emit(payload, args.format, render)
    return 0


def cmd_decompose(args):
    measure = load_instance(args.instance)
    dec = decompose(measure)
    name = measure.lattice.name
    if dec.is_regular_measure():
        kind = "regular"
    elif dec.is_purely_singular():
        kind = "purely_singular"
    else:
        kind = "mixed"
    payload = {
        "schema": "maxitive-decomposition/1",
        "sets": [{"set": label,
                  "outer": name(dec.outer.value(b)),
                  "regular_part": name(dec.regular.value(b)),
                  "singular_part": name(dec.singular.value(b))}
                 for label, b in measure.backend.labeled_sets(measure)],
        "identity_holds": dec.identity_holds,
        "singular_vanishes_on_compacts": dec.singular_vanishes_on_compacts,
        "regular_part_idempotent": dec.regular_part_idempotent,
        "singular_of_regular_vanishes": dec.singular_of_regular_vanishes,
        "classification": kind,
    }

    def render(p):
        lines = [f"decomposition ({p['classification']}; identity "
                 f"{'holds' if p['identity_holds'] else 'FAILS'}):"]
        width = max((len(json.dumps(r["set"])) for r in p["sets"]),
                    default=4)
        lines.append(f"  {'set':<{width}}  outer  regular  singular")
        for r in p["sets"]:
            shown = json.dumps(r["set"])
            lines.append(f"  {shown:<{width}}  {r['outer']:<5}  "
                         f"{r['regular_part']:<7}  {r['singular_part']}")
        return "\n".join(lines) + "\n"

    _emit(payload, args.format, render)
    return 0 if dec.ok else 1


def cmd_verify(args):
    bounds = _parse_bounds(args.bounds, args.seed)
    if args.suite == "all":
        report = run_all(bounds)
    else:
        report = VerificationReport(bounds,
                                    (run_theorem(args.suite, bounds),))

    def render(p):
        lines = []
        for case in p["cases"]:
            lines.append(f"{case['case']:<12} instances={case['instances']:<6}"
                         f" violations={len(case['violations']):<3}"
                         f" vacuous={case['vacuous']}")
        lines.append(f"total: {p['total_instances']} instances, "
                     f"{p['total_violations']} violations")
        return "\n".join(lines) + "\n"

    _emit(report.as_dict(), args.format, render)
    return 1 if report.total_violations else 0


def cmd_enumerate(args):
    spaces = list(enumerate_topologies(args.n))
    payload = {"points": args.n, "count": len(spaces)}
    if args.dump:
        payload["spaces"] = [serialize_space(s) for s in spaces]

    def render(p):
        lines = [f"labeled topologies on {p['points']} points: {p['count']}"]
        for s in p.get("spaces", ()):
            lines.append(json.dumps(s, sort_keys=True))
        return "\n".join(lines) + "\n"

    _emit(payload, args.format, render)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="maxitive",
        description="Exact maxitive measures on finite and countable "
                    "discrete spaces: classification, decomposition, and "
                    "exhaustive verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("analyze", help="classify an instance file")
    p.add_argument("instance")
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("decompose",
                       help="split an instance into regular and singular "
                            "parts")
    p.add_argument("instance")
    common(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", help="a case id or 'all'")
    p.add_argument("--bounds", default="",
                   help="comma-separated n=, lattice=, countable=")
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("enumerate", help="count labeled topologies")
    p.add_argument("n", type=int)
    p.add_argument("--dump", action="store_true")
    common(p)
    p.set_defaults(func=cmd_enumerate)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if not e.code else int(e.code)
    try:
        return args.func(args)
    except (InputError, BudgetError) as e:
        witness = getattr(e, "witness", None)
        sys.stderr.write(f"error: {e}\n")
        if witness is not None:
            sys.stderr.write(f"witness: {witness}\n")
        return 2
    except PreconditionError as e:
        sys.stderr.write(f"precondition failed: {e}\n")
        return 3
    except MaxitiveError as e:
        sys.stderr.write(f"violation: {e}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
