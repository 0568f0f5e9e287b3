"""Per-layer tracing from the outside: spans around calls into `hesitant`.

Nothing under `src/` knows about tracing. A `Tracer` times calls that the
benchmark makes itself (`tracer.call(layer, fn, ...)`), and `instrumented()`
temporarily rebinds the names through which one layer of `hesitant` calls
the next, so that those calls open spans too:

* the kernel module bound by `laws.algebra` (grid path) and by `elements`,
  `relations` and the exact `laws.algebra.EXACT` algebra (Fraction path) is
  replaced by a counting proxy;
* `Law` objects get timed `gen`, `guard` and `claim` through
  `dataclasses.replace`, and `engine.replay_fixtures` is timed;
* the degree parsers, the `HFS` operations, `element_relation` (as bound by
  `relations` and by `ranking`) and `Document.hfs`/`Document.family` are
  timed where their callers look them up.

Time is charged to the innermost open span, so each layer's figure is self
time: its span time minus the spans of the layers it called. A wrapper of a
layer that is already the innermost open span only counts, so recursion
inside one layer (a fold calling `HFS.union`) is not double charged. Spans
live in memory; the benchmark writes them out when it ends. Each span and
counter is named after the per-layer metric of `BENCHMARK.json` that
reports it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import types
from collections import defaultdict
from time import perf_counter

# Layer of the benchmark's own code inside an operation, between its calls
# into the library; time outside any operation is charged to IDLE.
BENCH = "bench.s"
IDLE = "idle"


class NullTracer:
    """Tracing off: calls go straight through."""

    def call(self, layer, fn, *args):
        return fn(*args)

    def law(self, law):
        return law

    def count(self, name, n=1):
        pass


class Tracer:
    """Self time per layer and event counts, accumulated in memory."""

    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: defaultdict[str, int] = defaultdict(int)
        self._stack = [IDLE]
        self._last = perf_counter()

    def _enter(self, layer: str) -> None:
        now = perf_counter()
        self.self_s[self._stack[-1]] += now - self._last
        self._stack.append(layer)
        self._last = now

    def _exit(self) -> None:
        now = perf_counter()
        self.self_s[self._stack.pop()] += now - self._last
        self._last = now

    def call(self, layer, fn, *args):
        self._enter(layer)
        try:
            return fn(*args)
        finally:
            self._exit()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def wrap(self, fn, layer: str, counter: str | None = None):
        """`fn` with a span of `layer` around each call and an optional
        call counter."""
        stack, counts, enter, leave = self._stack, self.counts, self._enter, self._exit

        def traced(*args, **kwargs):
            if counter is not None:
                counts[counter] += 1
            if stack[-1] == layer:
                return fn(*args, **kwargs)
            enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                leave()

        return traced

    def law(self, law):
        """The law with its generator, guard and claim timed.

        Fixture replay evaluates the guard and claim again on the exact
        algebra; those calls stay inside the `fixtures.s` span uncounted.
        """
        stack, counts, enter, leave = self._stack, self.counts, self._enter, self._exit

        def timed(fn, layer, counter, accepted=None):
            def traced(alg, binding, *rest):
                if stack[-1] == "fixtures.s":
                    return fn(alg, binding, *rest)
                counts[counter] += 1
                enter(layer)
                try:
                    result = fn(alg, binding, *rest)
                finally:
                    leave()
                if accepted is not None and result:
                    counts[accepted] += 1
                return result

            return traced

        changes = {
            field: timed(getattr(law, field), *names)
            for field, names in (("gen", ("generators.s", "generators.calls")),
                                 ("guard", ("registry.guard_s", "registry.guard_calls", "registry.guard_accepted")),
                                 ("claim", ("registry.claim_s", "registry.claim_calls")))
            if getattr(law, field) is not None
        }
        return dataclasses.replace(law, **changes)

    def kernel_proxy(self, module, layer: str, counter: str):
        """A stand-in for a kernel module whose functions are timed under
        `layer` and counted under `counter`; classes and constants pass
        through."""
        proxy = types.SimpleNamespace()
        for name in dir(module):
            if name.startswith("__"):
                continue
            value = getattr(module, name)
            if callable(value) and not isinstance(value, type):
                value = self.wrap(value, layer, counter)
            setattr(proxy, name, value)
        return proxy

    def snapshot(self) -> dict[str, float]:
        """Self time so far per layer, with the open span brought current."""
        out = dict(self.self_s)
        top = self._stack[-1]
        out[top] = out.get(top, 0.0) + perf_counter() - self._last
        return out


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Rebind the library's internal call sites to traced wrappers, and
    restore every binding on exit."""
    import hesitant.degrees as degrees
    import hesitant.document as document
    import hesitant.elements as elements
    import hesitant.ingest as ingest
    import hesitant.laws.algebra as algebra
    import hesitant.laws.engine as engine
    import hesitant.ranking as ranking
    import hesitant.relations as relations
    from hesitant.sets import HFS

    exact = tracer.kernel_proxy(elements._ops, "kernel.exact_s", "kernel.exact_calls")
    parse = tracer.wrap(degrees.parse_degree, "degrees.s", "degrees.parse_calls")
    element_relation = tracer.wrap(relations.element_relation, "relations.s", "relations.calls")
    replay = tracer.wrap(engine.replay_fixtures, "fixtures.s")

    def replay_fixtures(law):
        results = replay(law)
        tracer.count("fixtures.replays", len(results))
        return results

    patches = [
        (algebra, "active", tracer.kernel_proxy(algebra.active, "kernel.s", "kernel.calls")),
        (algebra.EXACT, "kern", exact),
        (elements, "_ops", exact),
        (relations, "_ops", exact),
        (engine, "replay_fixtures", replay_fixtures),
        (degrees, "parse_degree", parse),
        (document, "parse_degree", parse),
        (ingest, "parse_degree", parse),
        (document, "format_degree", tracer.wrap(document.format_degree, "degrees.s")),
        (elements, "coerce_degree", tracer.wrap(elements.coerce_degree, "degrees.s")),
        (relations, "element_relation", element_relation),
        (ranking, "element_relation", element_relation),
        (document.Document, "hfs", tracer.wrap(document.Document.hfs, "document.load_s")),
        (document.Document, "family", tracer.wrap(document.Document.family, "document.load_s")),
    ]
    for op in ("union", "intersection", "complement"):
        patches.append((HFS, op, tracer.wrap(getattr(HFS, op), "sets.s", "sets.op_calls")))

    saved = [(target, name, getattr(target, name)) for target, name, _ in patches]
    try:
        for target, name, value in patches:
            setattr(target, name, value)
        yield tracer
    finally:
        for target, name, value in reversed(saved):
            setattr(target, name, value)
