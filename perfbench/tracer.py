"""Outside-in per-layer tracer for the modgalrep pipeline.

The tracer wraps each layer's public entry points from outside the package,
so the package itself carries no tracing code.  Spans are kept in memory;
`Tracer.metrics()` turns them into the per-layer metrics once a traced pass
ends.  A layer's self time is the duration of its spans minus the time of
their child spans.  Counters (sizes, bit lengths, cache bytes) are computed
after a span has closed, and the time that takes is charged to neither the
span nor its parent, so it shows up only in the traced pass's wall time.
"""

import os
import time

LAYERS = ("ambient", "subspace", "hecke", "restrict", "decompose", "match",
          "cache")

# the per-layer metric names, in the order BENCHMARK.json lists them
METRICS = (
    "ambient.self_s", "ambient.calls", "ambient.dim",
    "subspace.self_s", "subspace.calls", "subspace.dim_out",
    "hecke.self_s", "hecke.calls", "hecke.max_entry_bits",
    "restrict.self_s", "restrict.calls", "restrict.max_entry_bits",
    "decompose.self_s", "decompose.calls", "decompose.dim_in",
    "decompose.systems", "decompose.max_field_degree",
    "match.self_s", "match.calls", "match.verdicts", "match.useful_ratio",
    "match.primes_checked",
    "cache.load_s", "cache.store_s", "cache.hits", "cache.misses",
    "cache.bytes_read", "cache.bytes_written",
)


class Span:
    __slots__ = ("layer", "start", "end", "child_ns", "parent")

    def __init__(self, layer, start, parent):
        self.layer = layer
        self.start = start
        self.end = None
        self.child_ns = 0
        self.parent = parent

    @property
    def self_ns(self):
        return self.end - self.start - self.child_ns


class Tracer:
    """Nested spans and counters; `clock` returns integer nanoseconds."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans = []
        self.stack = []
        self.counters = {}

    def count(self, name, value=1):
        self.counters[name] = self.counters.get(name, 0) + value

    def peak(self, name, value):
        self.counters[name] = max(self.counters.get(name, 0), value)

    def enter(self, layer):
        parent = self.stack[-1] if self.stack else None
        span = Span(layer, self.clock(), parent)
        self.stack.append(span)
        return span

    def leave(self, span):
        span.end = self.clock()
        self.stack.pop()
        self.spans.append(span)

    def exclude(self, ns):
        """Leave `ns` of work outside the program (a speed probe) out of
        the self time of the innermost open span."""
        if self.stack:
            self.stack[-1].child_ns += ns

    def charge_overhead(self, span, started_ns):
        """Hide bookkeeping done after `span` closed from its parent."""
        if span.parent is not None:
            span.parent.child_ns += self.clock() - started_ns

    def wrap(self, layer, fn, after=None):
        """Return `fn` traced as one span of `layer`.

        `after(span, args, result)` updates counters once the span has
        closed; its cost is kept out of every span's self time.
        """
        def traced(*args, **kwargs):
            span = self.enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.leave(span)
                if span.parent is not None:
                    span.parent.child_ns += span.end - span.start
            if after is not None:
                started = self.clock()
                after(span, args, result)
                self.charge_overhead(span, started)
            return result

        traced.__wrapped__ = fn
        return traced

    def self_seconds(self):
        out = {layer: 0 for layer in LAYERS}
        for span in self.spans:
            out[span.layer] = out.get(span.layer, 0) + span.self_ns
        return {layer: ns / 1e9 for layer, ns in out.items()}

    def metrics(self):
        """The per-layer metrics of everything traced so far."""
        selfs = self.self_seconds()
        c = self.counters
        out = {name: c.get(name, 0) for name in METRICS}
        for layer in LAYERS:
            if layer != "cache":
                out[layer + ".self_s"] = selfs[layer]
        out["cache.load_s"] = c.get("cache.load_ns", 0) / 1e9
        out["cache.store_s"] = c.get("cache.store_ns", 0) / 1e9
        calls = c.get("match.calls", 0)
        out["match.useful_ratio"] = (c.get("match.verdicts", 0) / calls
                                     if calls else 0.0)
        return out


def matrix_bits(mat):
    """Bit length of the largest entry of an integer matrix (list of rows)."""
    return max((abs(x) for row in mat for x in row), default=0).bit_length()


def install(tracer):
    """Wrap every layer entry point of modgalrep; returns an undo function.

    `pipeline` and `cli` import some entry points by name, so those names
    are replaced in every module that looks them up, not only where they
    are defined.
    """
    from modgalrep import cli, eigen, modsym, pipeline

    undo = []

    def patch(owner, name, new):
        old = owner.__dict__[name]
        setattr(owner, name, new)
        undo.append((owner, name, old))

    def patch_everywhere(name, new, modules):
        for module in modules:
            if name in module.__dict__:
                patch(module, name, new)

    # -- ambient -------------------------------------------------------------
    seen_ambients = set()

    def after_build(span, args, space):
        tracer.count("ambient.calls")
        if id(space.ambient) not in seen_ambients:
            seen_ambients.add(id(space.ambient))
            tracer.count("ambient.dim", space.dim)

    patch_everywhere("build_space",
                     tracer.wrap("ambient", modsym.build_space, after_build),
                     (modsym, pipeline, cli))

    # -- subspace ------------------------------------------------------------
    def after_subspace(span, args, space):
        tracer.count("subspace.calls")
        tracer.count("subspace.dim_out", space.dim)

    space_cls = modsym.ModularSymbolSpace
    for name in ("cuspidal_subspace", "star_plus_subspace",
                 "h_invariant_subspace"):
        patch(space_cls, name, tracer.wrap(
            "subspace", space_cls.__dict__[name], after_subspace))

    # -- hecke: operators of the ambient presentation --------------------------
    def after_hecke(span, args, mat):
        tracer.count("hecke.calls")
        tracer.peak("hecke.max_entry_bits", matrix_bits(mat))

    ambient_cls = modsym._Ambient
    for name in ("hecke_on_basis", "diamond_on_basis", "star_on_basis",
                 "boundary_matrix"):
        patch(ambient_cls, name, tracer.wrap(
            "hecke", ambient_cls.__dict__[name], after_hecke))

    # -- restrict: operators of a space that has a parent ----------------------
    # the package memoises restricted matrices, so the same object comes
    # back many times; its bit length is computed once, and the matrix is
    # kept so that its id cannot be reused
    bits_of = {}

    def after_restrict(span, args, mat):
        tracer.count("restrict.calls")
        key = id(mat)
        if key not in bits_of:
            bits_of[key] = (mat, matrix_bits(mat))
        tracer.peak("restrict.max_entry_bits", bits_of[key][1])

    for name in ("hecke_matrix", "diamond_matrix", "star_matrix"):
        plain = space_cls.__dict__[name]
        traced = tracer.wrap("restrict", plain, after_restrict)

        def dispatch(self, *args, _plain=plain, _traced=traced, **kwargs):
            if self.parent is None:
                return _plain(self, *args, **kwargs)
            return _traced(self, *args, **kwargs)

        patch(space_cls, name, dispatch)

    # -- decompose -------------------------------------------------------------
    def after_reduce(span, args, rspace):
        tracer.count("decompose.calls")

    def after_decompose(span, args, systems):
        tracer.count("decompose.calls")
        tracer.count("decompose.dim_in", args[0].dim)
        tracer.count("decompose.systems", len(systems))
        for s in systems:
            tracer.peak("decompose.max_field_degree", s.field.r)

    patch_everywhere("reduce_space_mod", tracer.wrap(
        "decompose", eigen.reduce_space_mod, after_reduce),
        (eigen, pipeline, cli))
    patch_everywhere("decompose", tracer.wrap(
        "decompose", eigen.decompose, after_decompose),
        (eigen, pipeline, cli))

    # -- match -------------------------------------------------------------------
    def after_match(span, args, report):
        tracer.count("match.calls")
        tracer.count("match.verdicts", int(bool(report.verdict)))
        tracer.count("match.primes_checked", len(report.primes_checked))

    patch_everywhere("match_twist", tracer.wrap(
        "match", eigen.match_twist, after_match), (eigen, pipeline, cli))
    for name in ("select_input_form", "find_twist", "realize"):
        patch_everywhere(name, tracer.wrap(
            "match", pipeline.__dict__[name]), (pipeline, cli))

    # -- cache ---------------------------------------------------------------------
    cache_cls = cli.MatrixCache

    def after_load(span, args, mat):
        self, level, weight, label = args[:4]
        tracer.count("cache.load_ns", span.end - span.start)
        if mat is None:
            tracer.count("cache.misses")
        else:
            tracer.count("cache.hits")
            tracer.count("cache.bytes_read",
                    os.path.getsize(self._path(level, weight, label)))

    def after_store(span, args, result):
        self, level, weight, label = args[:4]
        tracer.count("cache.store_ns", span.end - span.start)
        path = self._path(level, weight, label)
        if os.path.exists(path):
            tracer.count("cache.bytes_written", os.path.getsize(path))

    patch(cache_cls, "load", tracer.wrap(
        "cache", cache_cls.__dict__["load"], after_load))
    patch(cache_cls, "store", tracer.wrap(
        "cache", cache_cls.__dict__["store"], after_store))

    def uninstall():
        for owner, name, old in reversed(undo):
            setattr(owner, name, old)

    return uninstall
