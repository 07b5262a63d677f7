"""Command-line interface and report emission.

Exit codes: 0 success, 2 domain errors and 70 internal faults (both with a
machine-readable error document on stdout), 64 usage errors.  All numeric
output is exact: integers, residues and polynomial coefficient lists; no
floating point.
"""

import argparse
import json
import os
import sys
import traceback

from .congruence import (
    CosetTable,
    SubgroupH,
    curve_invariants,
    full_subgroup,
    gamma0_criterion,
    h_from_eigenform,
    predicted_kernel_order,
    trivial_subgroup,
)
from .dirichlet import (
    character_literal,
    conductor,
    kernel,
    parse_character,
    trivial_character,
)
from .exactalg.gf import poly_str
from .modsym import MatrixCache, build_space
from .pipeline import (
    PipelineError,
    TABLE_ROWS,
    decompose_level,
    find_twist,
    largest_subgroup_audit,
    plus_cuspidal_space,
    realize,
    select_input_form,
    table_row_selector,
)

USAGE_ERROR = 64
DOMAIN_ERROR = 2
INTERNAL_ERROR = 70  # EX_SOFTWARE


def default_cache_dir():
    env = os.environ.get("MGR_CACHE")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "mgr")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(USAGE_ERROR, "%s: error: %s\n" % (self.prog, message))


def _build_parser():
    parser = _Parser(prog="mgr", description=__doc__)
    parser.add_argument("--format", choices=["json", "tsv"], default="json")
    parser.add_argument("--no-cache", action="store_true")
    parser.add_argument("--cache-dir", default=None)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("char", help="inspect a Dirichlet character")
    p.add_argument("--char", required=True, help="literal n:g^e,...@m or triv:n")

    p = sub.add_parser("subgroup", help="kernel subgroup of an eigenform datum")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--weight", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--i", type=int, default=0)
    p.add_argument("--char", default=None)

    p = sub.add_parser("genus", help="curve invariants of Gamma_H")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--subgroup", default="full",
                   help="'full', 'triv', or comma-separated residues")

    p = sub.add_parser("msdim", help="modular symbol space dimensions")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--weight", type=int, required=True)

    p = sub.add_parser("hecke", help="an integral Hecke matrix")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--weight", type=int, required=True)
    p.add_argument("--p", type=int, required=True, help="a prime")
    p.add_argument("--full", action="store_true",
                   help="full space instead of plus-cuspidal")

    p = sub.add_parser("eigensys", help="mod-ell eigensystems of a space")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--weight", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--primes-up-to", type=int, default=20)
    p.add_argument("--subgroup", default=None,
                   help="comma-separated residues of H")

    # audit: the weight-2 match exists exactly on the subgroups inside H
    for name in ("twist", "realize", "audit"):
        p = sub.add_parser(name)
        p.add_argument("--level", type=int, required=True)
        p.add_argument("--weight", type=int, required=True)
        p.add_argument("--ell", type=int, required=True)
        p.add_argument("--a", action="append", default=[],
                       metavar="p=val", help="integer coefficient constraint")
        p.add_argument("--index", type=int, default=None,
                       help="eigensystem index selector")
        p.add_argument("--char", default=None)
        p.add_argument("--truncate-bound", type=int, default=None)
        p.add_argument("--form-file", default=None,
                       help="file of lines 'p a_p'")

    p = sub.add_parser("tables", help="the bundled weight-12 grid")
    p.add_argument("--max-ell", type=int, default=13)
    p.add_argument("--truncate-bound", type=int, default=None)
    return parser


def _selector_from_args(args):
    selector = {}
    ap = {}
    for item in args.a:
        key, _, val = item.partition("=")
        ap[int(key)] = int(val)
    if args.form_file:
        try:
            with open(args.form_file) as fh:
                lines = fh.readlines()
        except OSError as exc:
            raise ValueError("cannot read form file %s: %s"
                             % (args.form_file, exc.strerror)) from None
        for line in lines:
            parts = line.split()
            if len(parts) == 2:
                ap[int(parts[0])] = int(parts[1])
    if ap:
        selector["ap"] = ap
    if args.index is not None:
        selector["index"] = args.index
    return selector


def _subgroup_from_text(level, text):
    if text in (None, "full"):
        return full_subgroup(level)
    if text in ("triv", "1"):
        return trivial_subgroup(level)
    return SubgroupH.from_generators(level, [int(x) for x in text.split(",")])


def emit_report(doc, fmt="json", stream=None):
    """Serialize a report document: sorted-key JSON or fixed-column TSV."""
    stream = stream or sys.stdout
    if fmt == "json":
        json.dump(doc, stream, sort_keys=True, indent=2)
        stream.write("\n")
    else:
        rows = doc.get("rows", [doc.get("result", doc)])
        for row in rows:
            if isinstance(row, dict) and "tsv" in row:
                stream.write("\t".join(str(x) for x in row["tsv"]) + "\n")
            else:
                stream.write(json.dumps(row, sort_keys=True) + "\n")


def _run_char(args):
    chi = parse_character(args.char)
    return {
        "literal": character_literal(chi),
        "modulus": chi.modulus,
        "order": chi.order,
        "conductor": conductor(chi),
        "kernel": kernel(chi),
        "even": chi.is_even(),
    }


def _run_subgroup(args):
    eps = parse_character(args.char) if args.char else trivial_character(args.level)
    if eps.modulus != args.level:
        raise ValueError("the character has modulus %d, not the level %d"
                         % (eps.modulus, args.level))
    h = h_from_eigenform(eps, args.weight, args.i, args.ell)
    doc = {
        "level": h.level,
        "order": len(h),
        "elements": list(h.elements),
        "is_gamma0": h.is_full(),
        "gamma0_criterion": gamma0_criterion(args.ell, args.weight, args.i),
    }
    if eps.is_trivial() and args.weight > 2:
        doc["predicted_order"] = predicted_kernel_order(
            h.level, args.ell, args.weight - 2 - 2 * args.i)
    return doc


def _run_genus(args):
    h = _subgroup_from_text(args.level, args.subgroup)
    inv = curve_invariants(CosetTable(h))
    doc = inv.to_dict()
    doc["level"] = args.level
    doc["subgroup_order"] = len(h)
    return doc


def _run_msdim(args, cache):
    space = build_space(args.level, args.weight, cache=cache)
    cusp = space.cuspidal_subspace()
    plus = cusp.star_plus_subspace()
    return {
        "level": args.level,
        "weight": args.weight,
        "full": space.dim,
        "cuspidal": cusp.dim,
        "plus_cuspidal": plus.dim,
        "torsion": list(space.torsion),
    }


def _run_hecke(args, cache):
    if args.full:
        space = build_space(args.level, args.weight, cache=cache)
    else:
        space = plus_cuspidal_space(args.level, args.weight, cache=cache)
    mat = space.hecke_matrix(args.p)
    return {
        "level": args.level,
        "weight": args.weight,
        "p": args.p,
        "dim": space.dim,
        "trace": sum(mat[i][i] for i in range(len(mat))),
        "matrix": mat,
    }


def _run_eigensys(args, cache):
    subgroup = _subgroup_from_text(args.level, args.subgroup or "triv")
    systems = decompose_level(args.level, args.weight, args.ell,
                              args.primes_up_to, cache, subgroup)
    out = []
    for s in systems:
        out.append({
            "field_degree": s.field.r,
            "multiplicity": s.multiplicity,
            "a": {str(p): poly_str(v.coeffs) for p, v in sorted(s.a.items())},
            "diamond": {str(d): poly_str(v.coeffs)
                        for d, v in sorted(s.diamond.items())},
            "minpoly_a2": s.a[2].minpoly() if 2 in s.a else None,
            "bad_primes": list(s.bad_primes),
        })
    dim = sum(s.multiplicity * s.field.r for s in systems)
    return {"level": args.level, "weight": args.weight, "ell": args.ell,
            "dim": dim, "systems": out}


def _resolve_form(args, cache):
    eps = parse_character(args.char) if args.char else None
    return select_input_form(args.level, args.weight, args.ell,
                             _selector_from_args(args), eps=eps,
                             bound=args.truncate_bound, cache=cache)


def _run_twist(args, cache):
    form = _resolve_form(args, cache)
    result = find_twist(form, args.ell, truncate=args.truncate_bound,
                        cache=cache)
    return result.to_dict()


def _run_realize(args, cache):
    form = _resolve_form(args, cache)
    report = realize(form, args.ell, truncate=args.truncate_bound,
                     cache=cache)
    return report.to_dict()


def _run_audit(args, cache):
    form = _resolve_form(args, cache)
    twist = find_twist(form, args.ell, truncate=args.truncate_bound,
                       cache=cache)
    return largest_subgroup_audit(form, args.ell, twist.i,
                                  truncate=args.truncate_bound, cache=cache)


def _run_tables(args, cache):
    rows = []
    warnings = []
    for row in TABLE_ROWS:
        if row["ell"] > args.max_ell:
            continue
        eps = parse_character(row["eps"]) if "eps" in row else None
        form = select_input_form(row["N"], 12, row["ell"],
                                 table_row_selector(row), eps=eps,
                                 bound=args.truncate_bound, cache=cache)
        report = realize(form, row["ell"], truncate=args.truncate_bound,
                         cache=cache)
        ell = row["ell"]
        digest = "; ".join(
            "a%d=%s" % (p, poly_str(report.system.a[p].coeffs))
            for p in sorted(report.system.a)[:2])
        minpoly = report.minpolys.get(2)
        minpoly = poly_str(minpoly, "x", "") if minpoly else None
        if report.i != row["reference_i"]:
            warnings.append(
                "N=%d ell=%d: computed twist exponent %d differs from the "
                "tabulated value %d" % (row["N"], ell, report.i,
                                        row["reference_i"]))
        rows.append({
            "N": row["N"],
            "ell": ell,
            "lambda_residue_degree": form.system.field.r,
            "i": report.i,
            "f2": digest,
            "minpoly_a2": minpoly,
            "d1": report.d1,
            "dH": report.dh,
            "tsv": [ell, "deg%d" % form.system.field.r, report.i, digest,
                    minpoly or "-",
                    report.d1, report.dh],
        })
    doc = {"rows": rows}
    if warnings:
        doc["warnings"] = warnings
    return doc


def run_command(argv):
    """Run one CLI invocation; returns (exit code, document)."""
    return _run(_build_parser().parse_args(argv))


def _run(args):
    # one cache per run; without a directory it keeps the run's spaces only
    cache = MatrixCache(
        None if args.no_cache else args.cache_dir or default_cache_dir())
    handlers = {
        "char": lambda: _run_char(args),
        "subgroup": lambda: _run_subgroup(args),
        "genus": lambda: _run_genus(args),
        "msdim": lambda: _run_msdim(args, cache),
        "hecke": lambda: _run_hecke(args, cache),
        "eigensys": lambda: _run_eigensys(args, cache),
        "twist": lambda: _run_twist(args, cache),
        "realize": lambda: _run_realize(args, cache),
        "audit": lambda: _run_audit(args, cache),
        "tables": lambda: _run_tables(args, cache),
    }
    try:
        result = handlers[args.command]()
    except (PipelineError, ValueError) as exc:
        return DOMAIN_ERROR, {"error": str(exc), "command": args.command}
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        return INTERNAL_ERROR, {"error": "internal fault: %s: %s" % (
            type(exc).__name__, exc), "command": args.command}
    doc = {"command": args.command, "inputs": {
        k: v for k, v in sorted(vars(args).items())
        if k not in ("command",) and v is not None and v != []}}
    doc.update(result if isinstance(result, dict) else {"result": result})
    return 0, doc


def main(argv=None):
    args = _build_parser().parse_args(argv)
    code, doc = _run(args)
    emit_report(doc, args.format)
    return code


if __name__ == "__main__":
    sys.exit(main())
