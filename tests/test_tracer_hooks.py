"""The benchmark's tracer still finds every entry point it wraps.

perfbench/tracer.py patches package attributes by name and reads their
results (bit lengths of list matrices, report verdicts), so a rename or a
change of return type breaks only traced benchmark runs.  This test loads
the tracer from its file, installs it, runs one small traced job through
every layer, and checks that each layer's counter moved.
"""

import importlib.util
import os

from modgalrep import eigen, modsym, pipeline
from modgalrep.exactalg.arith import primes_up_to

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                      "tracer.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_hooks_count_every_layer():
    tracer = _load_tracer()
    plain = (eigen.decompose, eigen.match_twist, eigen.reduce_space_mod,
             pipeline.build_space, modsym.ModularSymbolSpace.hecke_matrix)
    trace = tracer.Tracer()
    uninstall = tracer.install(trace)
    try:
        # through the module attributes, which install replaced
        space = pipeline.plus_cuspidal_space(11, 2)
        primes = list(primes_up_to(13))
        systems = eigen.decompose(eigen.reduce_space_mod(space, 5, primes),
                                  primes)
        t2 = space.hecke_matrix(2)
        report = eigen.match_twist(systems[0], systems[0], 0, 13)
    finally:
        uninstall()
    assert isinstance(t2, list) and report.verdict
    metrics = trace.metrics()
    for name in ("ambient.calls", "subspace.calls", "hecke.calls",
                 "restrict.calls", "decompose.calls", "match.calls"):
        assert metrics[name] > 0, name
    assert metrics["match.verdicts"] == 1
    assert metrics["decompose.systems"] == len(systems)
    assert plain == (eigen.decompose, eigen.match_twist,
                     eigen.reduce_space_mod, pipeline.build_space,
                     modsym.ModularSymbolSpace.hecke_matrix)
