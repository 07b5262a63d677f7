"""The benchmark's workloads: each is a list of jobs and their checked output.

A job is a (name, callable) pair; the callable runs one piece of the
realization pipeline through the package's public entry points and returns
a small JSON-able record of its result.  `expected.json` pins every job's
record as the seed revision computed it.  Every entry point is looked up on
its module at call time, so the tracer's wrappers are the ones that run.
"""

import hashlib
import json
import random

WORKLOADS = ("restrict_bigint", "eigensys_wt2", "grid_cold", "grid_warm")

# Rows (N, ell) of the bundled weight-12 grid run by grid_cold and grid_warm.
# (4, 11) and (5, 11) are left out: together they triple a pass's time,
# which would leave one sample per run.
GRID_ROWS = ((1, 11), (3, 5), (3, 7), (3, 11), (4, 5), (4, 7), (5, 7))

# One bound for selection and matching (see NOTES.md, defect D1).
GRID_BOUND = 50


def digest(obj):
    """Short stable hash of a JSON-able value."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def systems_record(dim, systems):
    """Check record of a decomposition: sizes plus a digest of the values."""
    tuples = sorted((s.field.r, s.multiplicity) + s.value_tuple()
                    for s in systems)
    return {
        "dim": dim,
        "systems": len(systems),
        "mult_deg_sum": sum(s.multiplicity * s.field.r for s in systems),
        "values": digest(tuples),
    }


def restrict_bigint_job():
    """Plus-cuspidal S_12(Gamma_1(6)) mod 7, split by T_5 and the diamonds."""
    from modgalrep import eigen, pipeline
    space = pipeline.plus_cuspidal_space(6, 12)
    rspace = eigen.reduce_space_mod(space, 7, [5])
    return systems_record(space.dim, eigen.decompose(rspace, [5]))


def eigensys_wt2_job():
    """`mgr eigensys` on plus-cuspidal S_2(Gamma_1(40)) mod 13, p <= 50."""
    from modgalrep import cli
    code, doc = cli.run_command(
        ["--no-cache", "eigensys", "--level", "40", "--weight", "2",
         "--ell", "13", "--primes-up-to", "50"])
    if code != 0:
        raise RuntimeError("mgr eigensys exited %d: %s" % (code, doc))
    systems = doc["systems"]
    return {
        "dim": doc["dim"],
        "systems": len(systems),
        "mult_deg_sum": sum(s["multiplicity"] * s["field_degree"]
                            for s in systems),
        "max_field_degree": max(s["field_degree"] for s in systems),
        "values": digest(systems),
    }


def grid_row_job(n, ell, cache):
    """Select one grid row's input form and realize it, as the tests do."""
    from modgalrep import dirichlet, pipeline
    row = next(r for r in pipeline.TABLE_ROWS
               if r["N"] == n and r["ell"] == ell)
    eps = dirichlet.parse_character(row["eps"]) if "eps" in row else None
    selector = pipeline.table_row_selector(row)

    def job():
        form = pipeline.select_input_form(n, 12, ell, selector, eps=eps,
                                          bound=GRID_BOUND, cache=cache)
        rep = pipeline.realize(form, ell, truncate=GRID_BOUND, cache=cache)
        return {
            "i": rep.i,
            "d1": rep.d1,
            "dH": rep.dh,
            "weight2_level": rep.system_level,
            "heuristic": rep.twist.heuristic,
            "a_p": digest(rep.to_dict()["weight2_values"]),
        }

    return job


def grid_order(seed):
    """The grid rows in the order a seed gives."""
    rows = list(GRID_ROWS)
    random.Random(seed).shuffle(rows)
    return rows


def make_jobs(workload, seed, cache_dir=None):
    """The jobs of one pass of a workload, as (name, callable) pairs."""
    if workload == "restrict_bigint":
        return [("restrict_bigint", restrict_bigint_job)]
    if workload == "eigensys_wt2":
        return [("eigensys_wt2", eigensys_wt2_job)]
    if workload in ("grid_cold", "grid_warm"):
        from modgalrep import cli
        cache = cli.MatrixCache(cache_dir)
        return [("grid_N%d_l%d" % (n, ell), grid_row_job(n, ell, cache))
                for n, ell in grid_order(seed)]
    raise ValueError("unknown workload %r" % workload)
