"""In-memory span recorder for the traced run.

The recorder wraps each layer's public callables at the names their
callers look up (``cli.parse_system``, ``geometry.decompose``, the
``OrthogonalSystem.zeroed`` property, ...), records one span per call
and restores every original on :meth:`Tracer.uninstall`, so untraced
requests run the unmodified program.  A span keeps its name, start,
end, parent span and request id; self time is a span's duration minus
the time its child spans cover.
"""

from __future__ import annotations

import csv
from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

# Span names, one per wrapped layer boundary.
SPAN_NAMES = (
    "request",
    "cli.args",
    "cli.run",
    "syntax.parse_system",
    "ortho.orthogonalize",
    "ortho.truth_table",
    "ortho.index",
    "ortho.json",
    "ortho.x_from_z",
    "solve.solutions_z",
    "solve.count_solutions",
    "geometry.decompose",
    "geometry.classify",
    "stats.exact",
    "stats.sample",
)
_ID = {name: i for i, name in enumerate(SPAN_NAMES)}

GEOMETRY_CLASSIFIERS = (
    "coordinate_rank",
    "irreducibility_rank",
    "is_irreducible",
    "irr_count",
    "are_isomorphic",
)
STATS_EXACT = ("avg_irr_closed", "avg_irr_exhaustive", "avg_ir_rank", "iso_pair_probability")


class Tracer:
    def __init__(self):
        self.name = array("b")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.request = array("l")
        self._stack: list[int] = []
        self._request_id = -1
        self._extracted: dict[int, object] = {}
        self.counts: dict[str, int] = defaultdict(int)
        self._saved: list[tuple[object, str, object]] = []

    # --- spans ------------------------------------------------------------

    def begin(self, name: str) -> int:
        index = len(self.start)
        self.name.append(_ID[name])
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self._request_id)
        self.end.append(0)
        self._stack.append(index)
        self.start.append(perf_counter_ns())
        return index

    def finish(self, index: int) -> None:
        self.end[index] = perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield
        finally:
            self.finish(index)

    def begin_request(self) -> int:
        self._request_id += 1
        self._extracted.clear()
        self.counts["cli.requests"] += 1
        return self.begin("request")

    def self_ns(self) -> dict[str, int]:
        """Total self time per span name."""
        covered = [0] * len(self.start)
        for i, parent in enumerate(self.parent):
            if parent >= 0:
                covered[parent] += self.end[i] - self.start[i]
        totals = defaultdict(int)
        for i, name in enumerate(self.name):
            totals[SPAN_NAMES[name]] += self.end[i] - self.start[i] - covered[i]
        return totals

    def write_csv(self, path: str) -> None:
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["request", "span", "parent", "name", "start_ns", "end_ns"])
            for i in range(len(self.start)):
                writer.writerow(
                    [
                        self.request[i],
                        i,
                        self.parent[i],
                        SPAN_NAMES[self.name[i]],
                        self.start[i],
                        self.end[i],
                    ]
                )

    # --- wrappers -----------------------------------------------------------

    def _replace(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _call(self, name: str, fn, after=None):
        def wrapper(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.finish(index)
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def _stream(self, name: str, fn, after):
        """Wraps a generator function so each ``next()`` is one span."""

        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def spans():
                while True:
                    index = self.begin(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self.finish(index)
                    after(item, args)
                    yield item

            return spans()

        return wrapper

    def _count(self, key: str, amount=None):
        counts = self.counts

        def after(result, args):
            counts[key] += 1 if amount is None else amount(result, args)

        return after

    def _count_parse(self, result, args):
        self.counts["syntax.parse_system.calls"] += 1
        self.counts["syntax.in_bytes"] += len(args[0].encode())

    def _index_property(self, prop: property) -> property:
        fget = prop.fget
        counts = self.counts
        extracted = self._extracted

        def getter(system):
            counts["ortho.index.calls"] += 1
            if id(system) in extracted:
                counts["ortho.index.repeats"] += 1
            else:
                extracted[id(system)] = system
            index = self.begin("ortho.index")
            try:
                return fget(system)
            finally:
                self.finish(index)

        return property(getter, doc=prop.__doc__)

    def install(self, boolgeo) -> None:
        """Wrap every traced callable of the imported ``boolgeo`` package."""
        cli, ortho, solve = boolgeo.cli, boolgeo.ortho, boolgeo.solve
        geometry, stats = boolgeo.geometry, boolgeo.stats
        system_cls = ortho.OrthogonalSystem
        counts = self.counts

        self._replace(cli, "run", self._call("cli.run", cli.run))
        self._replace(
            cli,
            "parse_system",
            self._call(
                "syntax.parse_system",
                cli.parse_system,
                self._count_parse,
            ),
        )
        self._replace(
            cli, "orthogonalize", self._call("ortho.orthogonalize", cli.orthogonalize)
        )
        self._replace(
            ortho,
            "truth_table",
            self._call(
                "ortho.truth_table", ortho.truth_table, self._count("ortho.truth_table.calls")
            ),
        )
        self._replace(
            cli,
            "x_from_z",
            self._call("ortho.x_from_z", cli.x_from_z, self._count("ortho.x_from_z.calls")),
        )
        for attr in ("zeroed", "surviving"):
            self._replace(system_cls, attr, self._index_property(system_cls.__dict__[attr]))
        from_json = system_cls.__dict__["from_json_dict"].__func__
        self._replace(
            system_cls, "from_json_dict", classmethod(self._call("ortho.json", from_json))
        )
        self._replace(
            system_cls, "to_json_dict", self._call("ortho.json", system_cls.to_json_dict)
        )
        post_init = system_cls.__post_init__

        def counted_post_init(system):
            counts["ortho.systems_built"] += 1
            post_init(system)

        self._replace(system_cls, "__post_init__", counted_post_init)

        def point_done(point, args):
            counts["solve.points"] += 1
            counts["algebra.cells_built"] += 1 << args[0].n

        self._replace(
            solve, "solutions_z", self._stream("solve.solutions_z", solve.solutions_z, point_done)
        )
        self._replace(
            solve,
            "count_solutions",
            self._call("solve.count_solutions", solve.count_solutions),
        )
        self._replace(
            geometry,
            "decompose",
            self._call(
                "geometry.decompose",
                geometry.decompose,
                self._count("geometry.components", lambda r, a: len(r)),
            ),
        )
        for attr in GEOMETRY_CLASSIFIERS:
            self._replace(geometry, attr, self._call("geometry.classify", getattr(geometry, attr)))
        for attr in STATS_EXACT:
            after = None
            if attr == "avg_irr_exhaustive":
                after = self._count("stats.systems_visited", lambda r, a: 1 << (1 << a[0]))
            self._replace(stats, attr, self._call("stats.exact", getattr(stats, attr), after))
        self._replace(
            stats,
            "sample_systems",
            self._stream(
                "stats.sample", stats.sample_systems, self._count("stats.systems_visited")
            ),
        )

    def uninstall(self) -> None:
        """Put every original back, newest first, and verify it."""
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        for owner, attr, original in self._saved:
            if owner.__dict__[attr] is not original:
                raise RuntimeError(f"could not restore {owner.__name__}.{attr}")
        self._saved.clear()
