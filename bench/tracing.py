"""In-memory tracing of the maxitive layers, installed from outside.

The library is not edited.  `install(tracer)` replaces the public entry
points of each layer by wrappers and returns a function that puts every
original back.  Three kinds of wrapper exist:

* counters, for kernels called 10^5 to 10^7 times (`FinitePoset.join`,
  `MaxitiveMeasure.value`, ...): one integer increment, no clock;
* leaf timers, for `topology.analysis`, which `value` calls on every
  evaluation: a count plus a clock pair, charged to the enclosing span
  so that the span's self time excludes it; leaf timers never nest;
* spans, for coarse calls: name, start, end, the id of the enclosing
  span, and the leaf time spent directly inside.  Spans are kept in
  memory and summarised when the process ends.

Module functions are replaced at every binding in the `maxitive`
package, so calls made through a `from ... import` name (for instance
`harness.decompose` or `cli.load_instance`) are seen too.  `lru_cache`d
functions are wrapped outside the cache, so every call is counted and
cache misses are read from `cache_info()`.
"""

from __future__ import annotations

import sys
import time


class Tracer:
    """Counters, leaf timers and a span list for one process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.cells = {}       # metric name -> [int or float]
        self.spans = []       # (id, parent, name, start, end, leaf_s)
        self.stack = []       # open spans: [id, name, start, leaf_s]
        self._next_id = 0

    def cell(self, name):
        return self.cells.setdefault(name, [0])

    def counter(self, name, fn):
        cell = self.cell(name)

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    def leaf(self, name, fn):
        calls = self.cell(name + ".calls")
        busy = self.cell(name + ".self_s")
        stack, clock = self.stack, self.clock

        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                took = clock() - start
                calls[0] += 1
                busy[0] += took
                if stack:
                    stack[-1][3] += took
        return wrapper

    def enter(self, name):
        self._next_id += 1
        frame = [self._next_id, name, self.clock(), 0.0]
        self.stack.append(frame)
        return frame

    def exit(self, frame):
        end = self.clock()
        popped = self.stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame[1]} closed out of order")
        parent = self.stack[-1][0] if self.stack else None
        self.spans.append((frame[0], parent, frame[1], frame[2], end,
                           frame[3]))

    def span(self, name, fn, name_of=None, on_result=None):
        """Wrap fn in a span.  name_of(*args) may refine the span name;
        on_result(result) may add to counters after a successful call."""
        errors = self.cell(name + ".errors")

        def wrapper(*args, **kwargs):
            label = name_of(*args) if name_of else name
            self.cell(label + ".calls")[0] += 1
            frame = self.enter(label)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[0] += 1
                raise
            finally:
                self.exit(frame)
            if on_result is not None:
                on_result(result)
            return result
        return wrapper

    def span_generator(self, name, fn):
        """Wrap a generator function: each resumption is one span."""

        def wrapper(*args, **kwargs):
            self.cell(name + ".calls")[0] += 1
            gen = fn(*args, **kwargs)
            while True:
                frame = self.enter(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self.exit(frame)
                yield item
        return wrapper

    def summary(self):
        """Counters and leaf times as stored, plus `<name>.self_s` for
        every span name."""
        out = {k: v[0] for k, v in self.cells.items()}
        for name, secs in self_times(self.spans).items():
            out[name + ".self_s"] = out.get(name + ".self_s", 0.0) + secs
        return out


def self_times(spans):
    """Self time per span name: each span's duration minus the
    durations of its direct child spans and minus the leaf time
    recorded inside it.  spans are (id, parent, name, start, end,
    leaf_s) tuples, in any order."""
    child_time = {}
    for _id, parent, _name, start, end, _leaf in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    out = {}
    for sid, _parent, name, start, end, leaf in spans:
        own = (end - start) - child_time.get(sid, 0.0) - leaf
        out[name] = out.get(name, 0.0) + own
    return out


# what is wrapped, by layer

COUNTED_METHODS = (
    ("order", "FinitePoset", "join", "order.join.calls"),
    ("order", "FinitePoset", "meet", "order.meet.calls"),
    ("order", "FinitePoset", "sup_of_mask", "order.sup_of_mask.calls"),
    ("order", "FinitePoset", "inf_of_mask", "order.inf_of_mask.calls"),
    ("measure", "MaxitiveMeasure", "value", "measure.value.calls"),
    ("measure", "MaxitiveMeasure", "outer_value", "measure.outer_value.calls"),
    ("countable", "TailDensity", "value", "countable.value.calls"),
)

SPANNED_METHODS = (
    ("measure", "MaxitiveMeasure", "classify", "measure.classify"),
    ("measure", "MaxitiveMeasure", "upper_density", "measure.upper_density"),
    ("measure", "MaxitiveMeasure", "outer_regularization",
     "measure.outer_regularization"),
)

COUNTED_FUNCTIONS = (
    ("countable", "sample_sets", "countable.sample_sets.calls"),
)

SPANNED_FUNCTIONS = (
    ("order", "check_domain", "order.check_domain"),
    ("topology", "t0_reflection", "topology.t0_reflection"),
    ("topology", "hofmann_mislove_check", "topology.hofmann_mislove_check"),
    ("countable", "tail_flags", "countable.tail_flags"),
    ("decomposition", "decompose", "decomposition.decompose"),
    ("decomposition", "regular_part", "decomposition.regular_part"),
    ("decomposition", "singular_part", "decomposition.singular_part"),
    ("decomposition", "minimality_brute_force",
     "decomposition.minimality_brute_force"),
    ("harness", "measure_instances", "harness.measure_instances"),
    ("harness", "run_case", "harness.case"),
    ("instances", "load_instance", "instances.load_instance"),
    ("cli", "cmd_analyze", "cli.analyze"),
    ("cli", "cmd_decompose", "cli.decompose"),
)

# lru_cached functions whose misses are reported: (module, attr, metric)
CACHES = (
    ("topology", "analysis", "topology.analysis.misses"),
    ("decomposition", "decompose", "decomposition.decompose.misses"),
    ("measure", "_classify", "measure.classify.distinct"),
)


def _modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "maxitive"
                                  or name.startswith("maxitive."))]


def _rebind_everywhere(original, replacement, undo):
    """Point every module-level name bound to original at replacement."""
    for mod in _modules():
        for attr, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, attr, replacement)
                undo.append((mod, attr, original))


def install(tracer):
    """Wrap every traced entry point; return a function that undoes it
    and folds cache statistics into the tracer."""
    import maxitive.cli  # noqa: F401  (loads every module of the package)
    mods = {m.__name__.rpartition(".")[2]: m for m in _modules()}
    undo = []
    caches = [(getattr(mods[mod], attr), metric)
              for mod, attr, metric in CACHES]
    before = [fn.cache_info().misses for fn, _ in caches]

    def patch_method(mod, cls_name, attr, make):
        cls = getattr(mods[mod], cls_name)
        original = vars(cls)[attr]
        setattr(cls, attr, make(original))
        undo.append((cls, attr, original))

    for mod, cls, attr, metric in COUNTED_METHODS:
        patch_method(mod, cls, attr,
                     lambda f, metric=metric: tracer.counter(metric, f))
    for mod, cls, attr, name in SPANNED_METHODS:
        patch_method(mod, cls, attr,
                     lambda f, name=name: tracer.span(name, f))

    violations = tracer.cell("harness.violations")
    vacuous = tracer.cell("harness.vacuous")
    candidates = tracer.cell("decomposition.minimality.candidates")

    def case_done(result):
        violations[0] += len(result.violations)
        vacuous[0] += result.vacuous

    def minimality_done(result):
        candidates[0] += result.candidates

    hooks = {
        "harness.case": dict(
            name_of=lambda case, bounds: f"harness.case.{case.id}",
            on_result=case_done),
        "decomposition.minimality_brute_force": dict(
            on_result=minimality_done),
    }
    for mod, attr, metric in COUNTED_FUNCTIONS:
        original = getattr(mods[mod], attr)
        _rebind_everywhere(original, tracer.counter(metric, original), undo)
    for mod, attr, name in SPANNED_FUNCTIONS:
        original = getattr(mods[mod], attr)
        _rebind_everywhere(original,
                           tracer.span(name, original, **hooks.get(name, {})),
                           undo)
    original = mods["topology"].enumerate_topologies
    _rebind_everywhere(original, tracer.span_generator(
        "topology.enumerate_topologies", original), undo)
    original = mods["topology"].analysis
    _rebind_everywhere(original, tracer.leaf("topology.analysis", original),
                       undo)

    def restore():
        for start, (fn, metric) in zip(before, caches):
            tracer.cell(metric)[0] += fn.cache_info().misses - start
        while undo:
            owner, attr, original = undo.pop()
            setattr(owner, attr, original)
    return restore
