"""Span tracer for the traced run, installed from outside the package.

``install`` wraps the public functions of each ``markedgroups`` module in
every module that binds them (``from .x import y`` copies the name, so
``markedgroups.hnn.free_reduce`` is wrapped as well as
``markedgroups.words.free_reduce``).  Each wrapped call records a span:
its name, the name of the enclosing span, its thread and its duration.
Spans are aggregated in memory by (name, parent, thread), since a traced
pass makes millions of calls, and are written out when the pass ends.

Durations are read from the calling thread's CPU clock, so the time a
worker thread spends waiting for the interpreter lock is not counted as
busy time.  A span's self time is its duration minus its child spans.
A function the package no longer has is skipped, and its metrics read 0.
"""

from __future__ import annotations

import dataclasses
import threading
import time
import weakref
from concurrent.futures import ThreadPoolExecutor

clock = time.thread_time

# Functions wrapped as plain spans, by "module.function", with an optional
# measure of each call's size added to the "<span>.letters" count.
_SPANS = {
    "cli.main": None,
    "words.parse_word": lambda args, result: len(result.letters),
    "words.sort_key": None,
    "words.invert": None,
    "words.free_reduce": lambda args, result: len(args[0].letters),
    "words.substitute": None,
    "baumslag.eval_base": lambda args, result: len(args[0].letters),
    "baumslag.b_mul": None,
    "baumslag.pf_add": None,
    "baumslag.pf_mul_monomial": None,
    "baumslag.polyfrac": None,
    "baumslag.gf2_mul": None,
    "baumslag.span_membership": None,
    "marked.relation_ball": None,
    "marked.escape_index": None,
    "marked.chabauty_agree": None,
    # Spans for the experiment bodies keep their loops out of cli.main's
    # self time.
    "experiments.exp_epsilon": None,
    "experiments.exp_continuity": None,
    "rewriting.run_trace": None,
    "presentations.builtin": None,
}
_HANDLE_FACTORIES = ("handle_H2", "handle_HA", "handle_A", "conjugate_handle")


class _ThreadState:
    def __init__(self, thread: str):
        self.thread = thread
        self.root = ["<root>", 0.0]
        self.stack: list[list] = []
        self.spans: dict[tuple[str, str], list] = {}
        self.counts: dict[str, int] = {}
        self.maxima: dict[str, int] = {}


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self.cond_oracles: weakref.WeakSet = weakref.WeakSet()

    def state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadState(threading.current_thread().name)
            self._local.st = st
            with self._lock:
                self._states.append(st)
        return st

    def current(self) -> str:
        st = self.state()
        return st.stack[-1][0] if st.stack else st.root[0]

    def enter(self, name: str):
        st = self.state()
        frame = [name, 0.0, 0.0]
        st.stack.append(frame)
        frame[2] = clock()
        return st, frame

    def leave(self, st: _ThreadState, frame: list) -> None:
        duration = clock() - frame[2]
        st.stack.pop()
        parent = st.stack[-1] if st.stack else st.root
        parent[1] += duration
        key = (frame[0], parent[0])
        rec = st.spans.get(key)
        if rec is None:
            st.spans[key] = [1, duration, duration - frame[1]]
        else:
            rec[0] += 1
            rec[1] += duration
            rec[2] += duration - frame[1]

    def count(self, name: str, n: int = 1) -> None:
        counts = self.state().counts
        counts[name] = counts.get(name, 0) + n

    def maximum(self, name: str, value: int) -> None:
        maxima = self.state().maxima
        if value > maxima.get(name, -1):
            maxima[name] = value

    def call(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        st, frame = self.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.leave(st, frame)

    def span(self, name: str, fn, size=None):
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if size is not None:
                self.count(name + ".letters", size(args, result))
            return result

        return traced

    def snapshot(self) -> dict:
        """Spans as rows [name, parent, thread, calls, total_s, self_s]."""
        with self._lock:
            states = list(self._states)
        spans = []
        counts: dict[str, int] = {}
        maxima: dict[str, int] = {}
        for st in states:
            for (name, parent), (calls, total, own) in st.spans.items():
                spans.append([name, parent, st.thread, calls, total, own])
            for name, n in st.counts.items():
                counts[name] = counts.get(name, 0) + n
            for name, value in st.maxima.items():
                maxima[name] = max(maxima.get(name, value), value)
        return {"spans": spans, "counts": counts, "maxima": maxima}


def _patch(owner, name: str, make, package=None) -> None:
    """Replace ``owner.name`` by ``make(original)``, or, given ``package``,
    every module-level name bound to the original.  A name ``owner`` lacks
    is skipped."""
    original = getattr(owner, name, None)
    if original is None:
        return
    replacement = make(original)
    if package is None:
        setattr(owner, name, replacement)
        return
    for module in package:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap the markedgroups layers; call after import, before the pass."""
    import markedgroups.baumslag as baumslag
    import markedgroups.cli as cli
    import markedgroups.experiments as experiments
    import markedgroups.hnn as hnn
    import markedgroups.marked as marked
    import markedgroups.presentations as presentations
    import markedgroups.rewriting as rewriting
    import markedgroups.words as words

    modules = {
        "cli": cli, "words": words, "baumslag": baumslag, "hnn": hnn,
        "marked": marked, "experiments": experiments, "rewriting": rewriting,
        "presentations": presentations,
    }
    package = list(modules.values())

    for qualified, size in _SPANS.items():
        module_name, fn_name = qualified.split(".")
        _patch(modules[module_name], fn_name,
               lambda fn, q=qualified, size=size: tracer.span(q, fn, size), package)

    # Enumeration is timed on each next(), not on the call that makes the
    # generator.
    def traced_ball(enumerate_ball):
        def ball(*args, **kwargs):
            it = enumerate_ball(*args, **kwargs)
            while True:
                st, frame = tracer.enter("words.enumerate_ball")
                try:
                    w = next(it)
                except StopIteration:
                    return
                finally:
                    tracer.leave(st, frame)
                tracer.count("words.enumerate_ball.words")
                yield w

        return ball

    _patch(words, "enumerate_ball", traced_ball, package)

    def counted_init(word_init):
        def init(self, *args, **kwargs):
            tracer.count("words.Word.built")
            word_init(self, *args, **kwargs)

        return init

    _patch(words.Word, "__init__", counted_init)
    _install_hnn(tracer, hnn, package)
    _install_marked(tracer, hnn, marked, package)


def _level(tracer: Tracer, oracle) -> str:
    if oracle in tracer.cond_oracles:
        return "cond"
    return "G" if oracle.stable == "s" else "E"


def _parent_level(tracer: Tracer) -> str:
    parent = tracer.current().split(".")
    return parent[1] if parent[0] == "hnn" else "other"


def _install_hnn(tracer: Tracer, hnn, package) -> None:
    def oracle_method(method: str):
        def make(fn):
            def traced(self, *args, **kwargs):
                name = f"hnn.{_level(tracer, self)}.{method}"
                return tracer.call(name, fn, self, *args, **kwargs)

            return traced

        return make

    for method in ("is_trivial", "reduce"):
        _patch(getattr(hnn, "HnnOracle", None), method, oracle_method(method))

    def traced_split(split):
        def traced(w, *args, **kwargs):
            name = f"hnn.{_parent_level(tracer)}.split"
            tracer.count(name + ".letters", len(w.letters))
            return tracer.call(name, split, w, *args, **kwargs)

        return traced

    def traced_britton(britton_reduce):
        def traced(bw, pair, **kwargs):
            level = _parent_level(tracer)
            tries = f"hnn.{level}.pinch_tries"

            def counted(member):
                def attempt(w):
                    tracer.count(tries)
                    return member(w)

                return attempt

            pair = dataclasses.replace(
                pair,
                member_left=counted(pair.member_left),
                member_right=counted(pair.member_right),
            )
            result = tracer.call(f"hnn.{level}.britton_reduce", britton_reduce,
                                 bw, pair, **kwargs)
            tracer.count(f"hnn.{level}.pinches",
                         (bw.stable_count - result.stable_count) // 2)
            tracer.maximum(f"hnn.{level}.max_stable", bw.stable_count)
            return result

        return traced

    _patch(hnn, "split", traced_split, package)
    _patch(hnn, "britton_reduce", traced_britton, package)


def _install_marked(tracer: Tracer, hnn, marked, package) -> None:
    def traced_condense(condense):
        def traced(*args, **kwargs):
            result = tracer.call("marked.condense", condense, *args, **kwargs)
            tracer.cond_oracles.add(result.oracle)
            return result

        return traced

    _patch(marked, "condense", traced_condense, package)

    # Every membership call of a subgroup handle, nested ones included.
    def traced_factory(factory):
        def traced(*args, **kwargs):
            handle = factory(*args, **kwargs)
            return dataclasses.replace(
                handle, contains=tracer.span("marked.handle", handle.contains)
            )

        return traced

    for name in _HANDLE_FACTORIES:
        _patch(hnn, name, traced_factory, package)

    class TracedPool(ThreadPoolExecutor):
        """Runs each partition scan as a span whose parent is the span
        that submitted it, on the worker thread."""

        def map(self, fn, *iterables, **kwargs):
            parent = tracer.current()
            scan = tracer.span("marked.relation_ball.scan", fn)

            def task(*args):
                tracer.state().root = [parent, 0.0]
                return scan(*args)

            return super().map(task, *iterables, **kwargs)

    _patch(marked, "ThreadPoolExecutor", lambda pool: TracedPool)
