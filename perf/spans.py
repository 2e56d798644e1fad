"""Benchmark-side spans: ``perf_counter_ns`` intervals around the seams
the benchmark itself constructs.

Nothing in ``src/`` knows about this recorder. The ``--trace`` pass
replaces methods on the *instances* (and a few classes) it wires into a
world with wrappers that record ``[name, start, end, parent, op]``; the
untraced pass never installs a wrapper, so end-to-end numbers carry no
tracing cost. Records stay in memory and are aggregated after the round.

Self time of a span is its duration minus the part of that interval its
children cover (their union: children that ran on pipeline worker
threads overlap each other).
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from threading import get_ident
from time import perf_counter_ns
from typing import Any, Callable, Dict, Iterator, List, Tuple

__all__ = ["SpanRecorder", "SpanTable"]

# Record layout (a list, so the closing timestamp can be filled in place).
NAME, START, END, PARENT, OP, RESULT = range(6)


class SpanRecorder:
    """Records nested spans; one instance per traced round and process."""

    def __init__(self) -> None:
        self.records: List[list] = []
        self.op = -1
        #: Open spans per thread. Spans opened on worker threads the
        #: program starts on the client's behalf (``call_many`` fan-out,
        #: speculative binding) attach to the client thread's innermost
        #: open span.
        self._client_stack: List[list] = []
        self._stacks: Dict[int, List[list]] = {get_ident(): self._client_stack}
        self._patched: List[tuple] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def _open(self, name: str) -> Tuple[list, List[list]]:
        ident = get_ident()
        stack = self._stacks.get(ident)
        if stack is None:
            stack = self._stacks[ident] = []
        if stack:
            parent = stack[-1]
        elif stack is not self._client_stack and self._client_stack:
            parent = self._client_stack[-1]
        else:
            parent = None
        record = [name, 0, 0, parent, self.op, None]
        stack.append(record)
        self.records.append(record)
        record[START] = perf_counter_ns()
        return record, stack

    @contextmanager
    def span(self, name: str) -> Iterator[list]:
        record, stack = self._open(name)
        try:
            yield record
        finally:
            record[END] = perf_counter_ns()
            stack.pop()

    @contextmanager
    def operation(self, op: int, name: str = "op") -> Iterator[list]:
        """The root span of one benchmark operation."""
        self.op = op
        with self.span(name) as record:
            yield record

    def wrap(self, fn: Callable, name: str, keep_result: bool = False) -> Callable:
        """*fn* with a span around every call.

        ``keep_result`` stores the return value on the record (used for
        the verification cache, whose ``verify`` returns hit/miss).
        """
        open_span = self._open

        def traced(*args: Any, **kwargs: Any) -> Any:
            record, stack = open_span(name)
            try:
                result = fn(*args, **kwargs)
                if keep_result:
                    record[RESULT] = result
                return result
            finally:
                record[END] = perf_counter_ns()
                stack.pop()

        # ``RpcServer.register_object`` finds handlers by a function
        # attribute; carry such marks over (cheaper than functools.wraps,
        # which matters when a fresh client stack is wrapped per op).
        marks = getattr(fn, "__dict__", None)
        if marks:
            traced.__dict__.update(marks)
        return traced

    def patch(self, target: Any, attr: str, name: str, keep_result: bool = False) -> None:
        """Replace ``target.attr`` with a traced wrapper.

        Instance patches die with the instance (worlds and stacks are
        discarded after use); class patches are undone by :meth:`restore`.
        """
        original = getattr(target, attr)
        if isinstance(target, type):
            self._patched.append((target, attr, original, attr in vars(target)))
        setattr(target, attr, self.wrap(original, name, keep_result))

    def restore(self) -> None:
        """Undo every class-level patch."""
        for target, attr, original, had_own in reversed(self._patched):
            if had_own:
                setattr(target, attr, original)
            else:
                delattr(target, attr)
        self._patched.clear()

    def table(self) -> "SpanTable":
        return SpanTable(self.records)


class SpanTable:
    """Aggregates over a finished recording."""

    def __init__(self, records: List[list]) -> None:
        self.records = records
        children: Dict[int, List[list]] = defaultdict(list)
        for record in records:
            if record[PARENT] is not None:
                children[id(record[PARENT])].append(record)
        self._self_ns: Dict[int, int] = {}
        for record in records:
            start, end = record[START], record[END]
            covered = 0
            cursor = start
            for child in sorted(children.get(id(record), ()), key=lambda c: c[START]):
                lo = max(child[START], cursor)
                hi = min(child[END], end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            self._self_ns[id(record)] = (end - start) - covered
        self.by_name: Dict[str, List[list]] = defaultdict(list)
        for record in records:
            self.by_name[record[NAME]].append(record)

    def self_ns(self, record: list) -> int:
        return self._self_ns[id(record)]

    def count(self, name: str) -> int:
        return len(self.by_name.get(name, ()))

    def total_ns(self, name: str) -> int:
        return sum(r[END] - r[START] for r in self.by_name.get(name, ()))

    def total_self_ns(self, name: str) -> int:
        return sum(self._self_ns[id(r)] for r in self.by_name.get(name, ()))

    def mean_us(self, name: str) -> float:
        """Mean duration of *name* spans in µs (0.0 when none ran)."""
        count = self.count(name)
        return self.total_ns(name) / count / 1e3 if count else 0.0

    def mean_self_us(self, name: str) -> float:
        count = self.count(name)
        return self.total_self_ns(name) / count / 1e3 if count else 0.0

    def per_op(self, op: int) -> List[list]:
        return [r for r in self.records if r[OP] == op]
