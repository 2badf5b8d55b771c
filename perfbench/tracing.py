"""In-memory spans for the traced run, recorded from the benchmark only.

A span is ``(name, start, end, parent)``; the program is never edited.
Spans come from three places, all in this package:

* the benchmark's own system builder (machine construction, kernel
  boot, ``Kernel.run``);
* wrappers installed for the duration of a traced pass on module
  attributes the checkers look up at call time
  (:func:`patched_layers`), and a proxy on a result store's
  ``append`` / ``completed_keys`` / ``iter_records`` (:func:`trace_store`);
* phase totals the program reports itself (``McOptions(profile=True)``),
  added as child spans of known duration (:meth:`Tracer.add`).

A layer's self time is its spans' durations minus the time their child
spans cover, so the self times of one traced pass partition its wall
clock exactly; the root span's self time is what no layer claimed.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from typing import Callable, Dict, Iterator, List, Optional

_clock = time.perf_counter


class Tracer:
    """Spans and counters, kept in memory until :meth:`write`."""

    def __init__(self) -> None:
        # Each span: [name, start, end, parent index, duration].
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.counters: Dict[str, float] = {}

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        start = _clock()
        self.spans.append([name, start, start, parent, 0.0])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            end = _clock()
            entry = self.spans[index]
            entry[2] = end
            entry[4] = end - start

    def add(self, name: str, start: float, duration: float) -> None:
        """A child span of known total duration under the current span
        (program-reported phase totals, or the summed pieces of a
        generator that runs interleaved with its consumer)."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start, start + duration, parent, duration])

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def self_times(self) -> Dict[str, float]:
        """Per span name: total duration minus time covered by children."""
        child_time = [0.0] * len(self.spans)
        for _name, _start, _end, parent, duration in self.spans:
            if parent >= 0:
                child_time[parent] += duration
        totals: Dict[str, float] = {}
        for index, (name, _s, _e, _p, duration) in enumerate(self.spans):
            totals[name] = totals.get(name, 0.0) + duration - child_time[index]
        return totals

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "spans": [
                        {"name": n, "start": s, "end": e, "parent": p,
                         "duration": d}
                        for n, s, e, p, d in self.spans
                    ],
                    "counters": self.counters,
                    "self_times": self.self_times(),
                },
                handle,
            )


@contextlib.contextmanager
def patched_layers(tracer: Tracer) -> Iterator[None]:
    """Wrap the proof layer's and the campaign expansion's entry points.

    ``repro.core.proof`` binds ``check_all``, ``audit``,
    ``check_unwinding`` and ``AbstractHardwareModel`` as module globals
    and ``secret_swap_experiment`` calls ``compare_finished_runs`` the
    same way, so replacing the module attributes reroutes every call
    made while the patch is in place.  Restored on exit.
    """
    from repro.campaign import spec as campaign_spec
    from repro.core import noninterference, proof

    model_class = proof.AbstractHardwareModel

    class _TracedModel:
        from_machine = staticmethod(
            tracer.wrap("core.model", model_class.from_machine))

    patches = [
        (proof, "check_all", tracer.wrap("core.obligations", proof.check_all)),
        (proof, "audit", tracer.wrap("core.casesplit", proof.audit)),
        (proof, "check_unwinding",
         tracer.wrap("core.unwinding", proof.check_unwinding)),
        (proof, "AbstractHardwareModel", _TracedModel),
        (noninterference, "compare_finished_runs",
         tracer.wrap("core.compare", noninterference.compare_finished_runs)),
        (campaign_spec.CampaignSpec, "trials",
         tracer.wrap("campaign.expand", campaign_spec.CampaignSpec.trials)),
    ]
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, replacement in patches:
            setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def trace_store(store, tracer: Optional[Tracer]):
    """Proxy a store's read/write entry points through ``tracer``.

    Instance attributes shadow the class methods, so the store keeps
    its type (``run_campaign`` checks it) and callers need no change.
    ``iter_records`` is a generator consumed by the status pivot: only
    the time spent producing records is charged to the store scan, as
    one span of the summed pieces.
    """
    if tracer is None:
        return store
    append = store.append
    iter_records = store.iter_records

    def traced_append(record):
        tracer.count("campaign.store_appends")
        with tracer.span("campaign.store_append"):
            append(record)

    def traced_iter_records():
        first = _clock()
        spent = 0.0
        records = iter_records()
        while True:
            started = _clock()
            try:
                record = next(records)
            except StopIteration:
                spent += _clock() - started
                break
            spent += _clock() - started
            yield record
        tracer.add("campaign.store_scan", first, spent)

    store.append = traced_append
    store.completed_keys = tracer.wrap(
        "campaign.completed_keys", store.completed_keys)
    store.iter_records = traced_iter_records
    return store
