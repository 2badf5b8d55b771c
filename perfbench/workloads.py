"""The four benchmark workloads, driven through the public entry points.

Every knob stays at its default: the scalar engine, default
``McOptions``, full instrumentation, and ``run_campaign`` with the two
workers this benchmark's reference host has; everything else runs in
one process.  Off-by-default levers (batch engine, bitstate, spill,
batch expansion, ``mc --jobs``) are deliberately not measured.

Each workload draws its inputs from the benchmark seed in ``inputs``;
the program only ever receives the drawn inputs.  ``measure`` runs a
number of passes fixed by ``--seconds`` alone (see :func:`passes_for`),
so a faster commit does the same work in less time rather than more
work in the same time, and the per-run sample counts never move.

One *op* is the unit each workload's throughput counts:

=================  ===============================  ====================
workload           op                               ops_per_s is
=================  ===============================  ====================
prove_matrix       one proof verdict                verdicts_per_s
mc_matrix          one explored product state       mc_states_per_s
campaign_sweep     one campaign trial               trials_per_s
campaign_resume    one resume + status round        rounds per second
=================  ===============================  ====================
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import random
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.campaign import (
    CampaignSpec,
    TrialSpec,
    deterministic_view,
    open_store,
    run_campaign,
    run_trial,
)
from repro.campaign.registry import MACHINES, TP_CONFIGS
from repro.campaign.service.status import capacity_cells
from repro.core import prove_time_protection
from repro.hardware import Access, Compute, Halt, ReadTime, Syscall
from repro.hardware.state import InstrumentationMode, TouchKind
from repro.kernel import Kernel
from repro.mc import McOptions, McSpec, ModelChecker

from .oracle import (
    CAMPAIGN_EXPECTED,
    FAIL,
    KNOWN_MC_MISMATCHES,
    OPEN,
    PASS,
    Tally,
    channel_state,
    expected_verdict,
)
from .tracing import Tracer, trace_store

_clock = time.perf_counter

#: The campaign workloads' worker count: the reference host's cores.
CAMPAIGN_WORKERS = 2


def passes_for(workload, seconds: int) -> int:
    """Passes per run: ``--seconds`` over the workload's reference pass
    cost (measured once, on a 2-core x86 VM), never fewer than its
    ``min_passes``.  A constant, so the work never depends on speed."""
    return max(workload.min_passes, round(seconds / workload.pass_s))


def _span(tracer: Optional[Tracer], name: str):
    if tracer is None:
        return contextlib.nullcontext()
    return tracer.span(name)


def _feed(digest, *items: Any) -> None:
    digest.update(json.dumps(items, sort_keys=True, default=str).encode())
    digest.update(b"\n")


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def remove_store(path: str) -> None:
    for suffix in ("", "-wal", "-shm"):
        with contextlib.suppress(FileNotFoundError):
            os.remove(path + suffix)


@dataclass
class Measurement:
    """What one untraced or traced measurement produced."""

    samples: List[float] = field(default_factory=list)  # seconds per op
    units: float = 0.0  # ops, for ops_per_s
    wall: float = 0.0  # seconds the timed passes took
    tally: Tally = field(default_factory=Tally)
    digest: Any = field(default_factory=hashlib.sha256)
    #: Workload-specific metric names: name -> (value, unit).
    named: Dict[str, tuple] = field(default_factory=dict)
    #: Per-layer counters beyond the tracer's (traced runs only).
    layers: Dict[str, float] = field(default_factory=dict)


class Workload:
    """``inputs`` draws the inputs from the seed, once; ``setup`` turns
    them into the measured state and is what ``setup_s`` times (more
    than once per run); ``measure`` times the passes."""

    min_passes = 1
    #: Set-ups per run; ``setup_s`` is their median.  Cheap warm-ups
    #: repeat often enough that one slow moment of the host cannot move
    #: the median.
    setup_reps = 7

    def teardown(self, state: dict) -> None:
        pass


# ---------------------------------------------------------------------------
# prove_matrix
# ---------------------------------------------------------------------------


def _hi_program(ctx):
    secret = ctx.params["secret"]
    for i in range(80):
        yield Access(
            ctx.data_base + (i * (secret + 1) * ctx.line_size) % ctx.data_size,
            write=True,
            value=i,
        )
        if i % 9 == 0:
            yield Syscall("nop")
    while True:
        yield Compute(15)


def _lo_program(ctx):
    for i in range(150):
        yield ReadTime()
        yield Access(ctx.data_base + (i * ctx.line_size) % ctx.data_size)
    yield Halt()


class SystemBuilder:
    """The Hi/Lo system ``prove`` checks, shaped like the CLI's standard
    one, with per-build evidence recorded on the side.

    Every build feeds Lo's trace and the simulated cycles into the
    digest and adds its kernel steps to ``totals``; a traced build also
    records spans and the hardware and switch-path counters.
    """

    def __init__(self, machine: str, tp: str, max_cycles: int,
                 digest, totals: Counter, tracer: Optional[Tracer]):
        self.machine = machine
        self.tp = TP_CONFIGS[tp]()
        self.label = f"{machine}/{tp}"
        self.max_cycles = max_cycles
        self.digest = digest
        self.totals = totals
        self.tracer = tracer

    def __call__(self, secret: int) -> Kernel:
        tracer = self.tracer
        with _span(tracer, "hardware.build"):
            machine = MACHINES[self.machine]()
        if tracer is not None:
            # Ordered touch events for the element counters; nothing on
            # a verdict's path reads them.
            machine.instrumentation.mode = InstrumentationMode.FULL
        with _span(tracer, "kernel.boot"):
            kernel = Kernel(machine, self.tp)
            kernel.capture_footprints = True
            hi = kernel.create_domain("Hi", n_colours=2, slice_cycles=3000)
            lo = kernel.create_domain("Lo", n_colours=2, slice_cycles=3000)
            kernel.create_thread(hi, _hi_program, params={"secret": secret})
            kernel.create_thread(lo, _lo_program)
            kernel.set_schedule(0, [(hi, None), (lo, None)])
        with _span(tracer, "kernel.run"):
            kernel.run(max_cycles=self.max_cycles)
        cycles = max(core.clock.now for core in machine.cores)
        self.totals["builds"] += 1
        self.totals["steps"] += kernel.total_steps
        self.totals["cycles"] += cycles
        with _span(tracer, "bench.record"):
            _feed(self.digest, self.label, secret, cycles,
                  kernel.observation_trace("Lo"))
            if tracer is not None:
                self._count_layers(kernel)
        return kernel

    def _count_layers(self, kernel: Kernel) -> None:
        totals = self.totals
        events = kernel.machine.instrumentation.events
        fill = TouchKind.FILL
        for counted, kind in (
            (Counter(event.element for event in events), "touches"),
            (Counter(event.element for event in events
                     if event.kind is fill), "fills"),
        ):
            for element, count in counted.items():
                name = element.rsplit(".", 1)[-1]  # core0.l1d -> l1d
                totals[f"hardware.{name}.{kind}"] += count
        events.clear()
        for record in kernel.switch_records:
            totals["kernel.switches"] += 1
            totals["kernel.flush_cycles"] += record.flush_cycles
            totals["kernel.lines_written_back"] += record.lines_written_back
            totals["kernel.pad_overruns"] += int(record.overrun)


class ProveMatrix(Workload):
    """``prove_time_protection`` over machines x TP configs."""

    name = "prove_matrix"
    op = "verdict"
    pass_s = 14.0
    machines = ("tiny", "desktop", "tiny2")
    tps = ("full", "none", "no-pad", "no-flush", "no-colour", "no-clone")
    n_secrets = 4
    max_cycles = 400_000

    def inputs(self, seed: int, passes: int) -> dict:
        rng = random.Random(f"{self.name}:{seed}")
        return {"grid": [
            [(machine, tp, rng.sample(range(32), self.n_secrets))
             for machine in self.machines for tp in self.tps]
            for _ in range(passes)
        ]}

    def setup(self, inputs: dict, workdir: str) -> dict:
        # Warm-up: imports, presets and lazy tables, off the clock.
        warm = SystemBuilder("tiny", "full", self.max_cycles,
                             hashlib.sha256(), Counter(), None)
        prove_time_protection(warm, secrets=[0, 1], observer="Lo")
        return inputs

    def measure(self, state: dict, tracer: Optional[Tracer]) -> Measurement:
        result = Measurement()
        totals: Counter = Counter()
        observations = 0
        for cells in state["grid"]:
            started = _clock()
            for machine, tp, secrets in cells:
                label = f"{machine}/{tp}"
                builder = SystemBuilder(machine, tp, self.max_cycles,
                                        result.digest, totals, tracer)
                begin = _clock()
                try:
                    with _span(tracer, "core.prove"):
                        report = prove_time_protection(
                            builder, secrets=secrets, observer="Lo")
                except Exception as exc:  # counted, the matrix goes on
                    result.tally.error(label, exc)
                    continue
                result.samples.append(_clock() - begin)
                compared = sum(min(r.trace_length_a, r.trace_length_b)
                               for r in report.noninterference)
                observations += compared
                got = PASS if report.holds else FAIL
                result.tally.verdict(label, got, expected_verdict(machine, tp),
                                     compared)
                _feed(result.digest, label, secrets, got, compared)
            result.wall += _clock() - started
        verdicts = len(result.samples)
        result.units = verdicts
        result.named = {
            "verdicts_per_s": (verdicts / result.wall, "1/s"),
            "sim_steps_per_s": (totals["steps"] / result.wall, "1/s"),
        }
        if tracer is not None:
            result.layers.update(
                {key: value for key, value in totals.items()
                 if key.startswith(("hardware.", "kernel."))})
            result.layers["hardware.sim_cycles"] = totals["cycles"]
            result.layers["kernel.steps"] = totals["steps"]
            result.layers["core.builds"] = totals["builds"]
            result.layers["core.observations"] = (
                observations / verdicts if verdicts else 0.0)
        return result


# ---------------------------------------------------------------------------
# mc_matrix
# ---------------------------------------------------------------------------


class McMatrix(Workload):
    """``ModelChecker(McSpec.for_machine(...)).run()`` over presets x TP."""

    name = "mc_matrix"
    op = "state"
    pass_s = 5.5
    # 48 checks put the tail inside the desktop cluster, not at its edge.
    min_passes = 3
    machines = ("micro", "tiny", "pocket", "desktop")
    tps = ("full", "no-pad", "no-flush", "no-colour")
    n_secrets = 3

    def inputs(self, seed: int, passes: int) -> dict:
        rng = random.Random(f"{self.name}:{seed}")
        # Hi dirties secret + 1 lines, so the explored space grows with
        # the secrets; drawing from range(4) keeps one seed's work within
        # ~15% of another's.
        return {"grid": [
            [(machine, tp, tuple(rng.sample(range(4), self.n_secrets)))
             for machine in self.machines for tp in self.tps]
            for _ in range(passes)
        ]}

    def setup(self, inputs: dict, workdir: str) -> dict:
        ModelChecker(McSpec.for_machine("micro", "no-pad",
                                        secrets=(0, 1))).run()
        return inputs

    def measure(self, state: dict, tracer: Optional[Tracer]) -> Measurement:
        result = Measurement()
        stats_total: Counter = Counter()
        options = McOptions(profile=tracer is not None)
        for cells in state["grid"]:
            started = _clock()
            for machine, tp, secrets in cells:
                label = f"{machine}/{tp}"
                checker = ModelChecker(
                    McSpec.for_machine(machine, tp, secrets=secrets),
                    options=options)
                begin = _clock()
                try:
                    with _span(tracer, "mc.run"):
                        report = checker.run()
                        if tracer is not None:
                            for phase, seconds in report.profile.items():
                                tracer.add(f"mc.{phase}", begin, seconds)
                except Exception as exc:  # counted, the matrix goes on
                    result.tally.error(label, exc)
                    continue
                elapsed = _clock() - begin
                stats = report.stats
                result.samples.append(elapsed / stats.states_visited)
                result.units += stats.states_visited
                stats_total.update(
                    {key: value for key, value in stats.to_json().items()
                     if key not in ("peak_frontier", "max_depth")})
                for key in ("peak_frontier", "max_depth"):
                    stats_total[key] = max(stats_total[key],
                                           getattr(stats, key))
                got = PASS if report.passed else FAIL
                # The checker reports no observation count; evidence is
                # the explored space (see KNOWN_MC_MISMATCHES).
                result.tally.verdict(
                    label, got, expected_verdict(machine, tp),
                    stats.states_visited,
                    known=(machine, tp) in KNOWN_MC_MISMATCHES)
                _feed(result.digest, label, secrets, got, report.exhaustive,
                      report.stop_reason, stats.to_json())
            result.wall += _clock() - started
        result.named = {
            "mc_states_per_s": (result.units / result.wall, "1/s"),
            "mc_verdicts_per_s": (len(result.samples) / result.wall, "1/s"),
        }
        if tracer is not None:
            for key, name in (
                ("states_visited", "states"),
                ("transitions", "transitions"),
                ("deduped", "deduped"),
                ("terminal_states", "terminal"),
                ("por_pruned", "por_pruned"),
                ("peak_frontier", "peak_frontier"),
                ("max_depth", "max_depth"),
            ):
                result.layers[f"mc.{name}"] = stats_total[key]
            transitions = stats_total["transitions"]
            result.layers["mc.dedup_ratio"] = (
                stats_total["deduped"] / transitions if transitions else 0.0)
        return result


# ---------------------------------------------------------------------------
# campaign_sweep
# ---------------------------------------------------------------------------


def _check_records(result: Measurement, records: List[dict]) -> None:
    for record in sorted(records, key=lambda r: r["key"]):
        result.tally.channel(record["key"], record, CAMPAIGN_EXPECTED)
        _feed(result.digest, deterministic_view(record))


class CampaignSweep(Workload):
    """``run_campaign`` over tiny x TP configs x six attacks."""

    name = "campaign_sweep"
    op = "trial"
    pass_s = 11.0
    # The median trial falls between two clusters of trial kinds and two
    # workers share two cores, so one pass's median spread 0.2-0.3
    # between runs; four passes (96 trials) brought that to 0.08-0.17.
    min_passes = 4
    tps = ("full", "none", "no-pad", "no-flush")
    attacks = ("e2", "e4", "e5", "e6", "occupancy", "synth")

    def inputs(self, seed: int, passes: int) -> dict:
        rng = random.Random(f"{self.name}:{seed}")
        return {"seeds": [rng.randrange(1, 1 << 20) for _ in range(passes)]}

    def setup(self, inputs: dict, workdir: str) -> dict:
        # Warm-up: the store layer and one in-process trial.
        path = os.path.join(workdir, "sweep-warmup.sqlite")
        remove_store(path)
        store = open_store(path)
        store.append(run_trial(
            dict(TrialSpec("tiny", "full", "e5").to_payload(), attempt=1)))
        store.close()
        remove_store(path)
        return dict(inputs, workdir=workdir)

    def measure(self, state: dict, tracer: Optional[Tracer]) -> Measurement:
        result = Measurement()
        failed = retries = 0
        trial_wall: Dict[str, List[float]] = {a: [] for a in self.attacks}
        for index, seed in enumerate(state["seeds"]):
            spec = CampaignSpec(
                machines=("tiny",), tps=self.tps, attacks=self.attacks,
                seeds=(seed,), name=self.name)
            path = os.path.join(state["workdir"], f"sweep-{index}.sqlite")
            remove_store(path)
            store = trace_store(open_store(path), tracer)
            started = _clock()
            try:
                with _span(tracer, "campaign.run"):
                    report = run_campaign(spec, store,
                                          n_workers=CAMPAIGN_WORKERS,
                                          quiet=True)
            except Exception as exc:  # counted, the sweep goes on
                result.tally.error(f"sweep seed {seed}", exc)
                continue
            finally:
                result.wall += _clock() - started
                store.close()
                remove_store(path)
            failed += report.failed
            retries += report.retries
            _check_records(result, report.records)
            for record in report.records:
                result.samples.append(record["wall_time_s"])
                trial_wall[record["attack"]].append(record["wall_time_s"])
        result.units = len(result.samples)
        result.named = {"trials_per_s": (result.units / result.wall, "1/s")}
        if tracer is not None:
            result.layers.update({
                "campaign.failed": failed,
                "campaign.retries": retries,
                "campaign.worker_busy_ratio": sum(result.samples) / (
                    CAMPAIGN_WORKERS * result.wall),
            })
            for attack, walls in trial_wall.items():
                result.layers[f"attacks.{attack}.trial_s"] = _median(walls)
        return result


# ---------------------------------------------------------------------------
# campaign_resume
# ---------------------------------------------------------------------------


class CampaignResume(Workload):
    """Resume a finished 100k-record grid, then pivot ``/status``."""

    name = "campaign_resume"
    op = "round"
    pass_s = 2.5
    # Rounds are single samples of a store scan whose speed on the
    # reference VM jumps between ~1.5 s and ~2.5 s; the median of 6
    # rounds flipped between the two (spread 0.30 and 0.36 in two sets
    # of 10 runs), that of 8 spread 0.06-0.09.
    min_passes = 8
    # Each set-up writes 100 000 records (~5 s).
    setup_reps = 3
    tps = CampaignSweep.tps
    # The two cheapest attacks: the records are copies of real trials,
    # and every run makes those trials first.
    attacks = ("e5", "synth")
    n_seeds = 12_500  # x 4 tps x 2 attacks = 100 000 records

    def inputs(self, seed: int, passes: int) -> dict:
        rng = random.Random(f"{self.name}:{seed}")
        template_seed = rng.randrange(1, 1 << 20)
        seeds = sorted(rng.sample(range(1, 1 << 30), self.n_seeds))
        # Real records, one per (tp, attack), re-keyed per seed in setup.
        templates = {}
        for tp in self.tps:
            for attack in self.attacks:
                trial = TrialSpec("tiny", tp, attack, seed=template_seed)
                templates[(tp, attack)] = run_trial(
                    dict(trial.to_payload(), attempt=1))
        spec = CampaignSpec(
            machines=("tiny",), tps=self.tps, attacks=self.attacks,
            seeds=tuple(seeds), name=self.name)
        return {"spec": spec, "templates": templates, "rounds": passes}

    def setup(self, inputs: dict, workdir: str) -> dict:
        templates = inputs["templates"]
        path = os.path.join(workdir, "resume.sqlite")
        remove_store(path)
        store = open_store(path)
        batch: List[dict] = []
        for trial in inputs["spec"].trials():
            record = dict(templates[(trial.tp, trial.attack)])
            record.update(key=trial.key(), seed=trial.seed,
                          derived_seed=trial.derived_seed())
            batch.append(record)
            if len(batch) == 5000:
                store.append_many(batch)
                batch = []
        if batch:
            store.append_many(batch)
        store.close()
        return dict(inputs, path=path)

    def teardown(self, state: dict) -> None:
        remove_store(state["path"])

    def measure(self, state: dict, tracer: Optional[Tracer]) -> Measurement:
        result = Measurement()
        spec = state["spec"]
        total = len(spec.seeds) * len(self.tps) * len(self.attacks)
        _check_records(result, list(state["templates"].values()))
        expected_cells = {
            f"tiny|{tp}": any(CAMPAIGN_EXPECTED[(tp, attack)] == OPEN
                              for attack in self.attacks)
            for tp in self.tps
        }
        resume_s: List[float] = []
        status_s: List[float] = []
        store = trace_store(open_store(state["path"]), tracer)
        try:
            for index in range(state["rounds"]):
                label = f"resume round {index}"
                started = _clock()
                try:
                    with _span(tracer, "campaign.run"):
                        report = run_campaign(spec, store,
                                              n_workers=CAMPAIGN_WORKERS,
                                              quiet=True)
                    resumed = _clock()
                    with _span(tracer, "analysis.status"):
                        status = capacity_cells(store)
                    finished = _clock()
                except Exception as exc:  # counted, the rounds go on
                    result.wall += _clock() - started
                    result.tally.error(label, exc)
                    continue
                result.wall += finished - started
                resume_s.append(resumed - started)
                status_s.append(finished - resumed)
                result.samples.append(finished - started)
                opened = {cell: channel_state(bits) == OPEN
                          for cell, bits in status["cells"].items()}
                result.tally.attempted += 1
                if report.executed or report.skipped != total:
                    result.tally.fail(f"{label}: {report.summary()}")
                elif opened != expected_cells:
                    result.tally.fail(f"{label}: cells {status['cells']}")
                _feed(result.digest, report.total, report.skipped,
                      report.executed, status)
        finally:
            store.close()
        result.units = len(result.samples)
        result.named = {
            "resume_s": (_median(resume_s), "s"),
            "status_s": (_median(status_s), "s"),
        }
        return result


WORKLOADS = {
    workload.name: workload
    for workload in (ProveMatrix(), McMatrix(), CampaignSweep(),
                     CampaignResume())
}
