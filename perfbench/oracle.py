"""Expected verdicts for every workload, and the failure tally.

The tables state what the paper's argument predicts, not what the code
happens to print today:

* full time protection holds (proof PASS, model checker PASS, every
  campaign channel closed);
* each disabled mechanism is refuted on every preset (the ROADMAP
  rule);
* campaign cells under ablation are open or closed as EXPERIMENTS
  E2-E6 explain, per attack.

A verdict that disagrees is a failed operation, as are an exception, a
failed trial and a PASS resting on zero Lo observations.  Mismatches
listed in :data:`KNOWN_MC_MISMATCHES` are counted like any other; they
only keep ``correct`` true, because they are documented defects rather
than regressions.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

PASS, FAIL = "PASS", "FAIL"
OPEN, CLOSED = "open", "closed"

#: A channel counts as open above this capacity (the campaign matrix's
#: own "closed" threshold, ``analysis.summary.format_matrix``).
CLOSED_BELOW_BITS = 1e-3


def expected_verdict(machine: str, tp: str) -> str:
    """``prove`` and ``mc``: full TP holds, every ablation is refuted."""
    return PASS if tp == "full" else FAIL

#: Ablations the model checker is known to PASS (ROADMAP "No empty
#: PASS"): on desktop every path stops at ``McSpec.max_cycles`` before
#: Lo finishes its probe rounds.  Which cells PASS depends on the
#: secrets: over the four triples from ``range(4)`` that ``mc_matrix``
#: draws, no-flush PASSes on micro, pocket and desktop and no-colour on
#: desktop every time, and no-flush on tiny for (1, 2, 3) (not yet
#: diagnosed).
KNOWN_MC_MISMATCHES = frozenset({
    ("micro", "no-flush"),
    ("tiny", "no-flush"),
    ("pocket", "no-flush"),
    ("desktop", "no-flush"),
    ("desktop", "no-colour"),
})

#: (tp, attack) -> open/closed on the ``tiny`` preset.
CAMPAIGN_EXPECTED: Dict[Tuple[str, str], str] = {}
for _attack in ("e2", "e4", "e5", "e6", "occupancy", "synth"):
    CAMPAIGN_EXPECTED[("full", _attack)] = CLOSED
    # No mechanism at all: every channel but E5's is open.  E5 times
    # the flush itself, and with no flush there is no dirty-line
    # dependent switch latency to time.
    CAMPAIGN_EXPECTED[("none", _attack)] = CLOSED if _attack == "e5" else OPEN
CAMPAIGN_EXPECTED.update({
    # Without padding, the flush still clears core-private state (E2),
    # cloning still separates kernel text (E4) and IRQ partitioning
    # still defers the completion (E6); the dirty-line flush latency is
    # what leaks (E5).
    ("no-pad", "e2"): CLOSED,
    ("no-pad", "e4"): CLOSED,
    ("no-pad", "e5"): OPEN,
    ("no-pad", "e6"): CLOSED,
    ("no-pad", "occupancy"): CLOSED,
    ("no-pad", "synth"): CLOSED,
    # Without flushing, core-private residue survives the switch:
    # L1 prime+probe (E2, and the evolved genome that rediscovers it),
    # occupancy, and the write-back of Hi's dirty lines inside Lo's
    # slice (E5).  Clone (E4) and IRQ partitioning (E6) still hold.
    ("no-flush", "e2"): OPEN,
    ("no-flush", "e4"): CLOSED,
    ("no-flush", "e5"): OPEN,
    ("no-flush", "e6"): CLOSED,
    ("no-flush", "occupancy"): OPEN,
    ("no-flush", "synth"): OPEN,
})


def channel_state(capacity_bits: float) -> str:
    return OPEN if capacity_bits >= CLOSED_BELOW_BITS else CLOSED


class Tally:
    """Attempted and failed operations, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []
        self.known: List[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures) + len(self.known)

    @property
    def correct(self) -> bool:
        """No failure outside the documented known defects."""
        return not self.failures

    def fail(self, reason: str, known: bool = False) -> None:
        (self.known if known else self.failures).append(reason)

    def verdict(self, label: str, got: str, expected: str,
                evidence: int, known: bool = False) -> None:
        """One checked verdict; ``evidence`` is what a PASS rests on."""
        self.attempted += 1
        if got != expected:
            self.fail(f"{label}: {got}, expected {expected}", known)
        elif got == PASS and evidence <= 0:
            self.fail(f"{label}: PASS with zero Lo observations")

    def channel(self, label: str, record: dict,
                expected: Dict[Tuple[str, str], str]) -> None:
        """One campaign trial record against the open/closed table."""
        self.attempted += 1
        if record.get("status") != "ok":
            self.fail(f"{label}: trial failed: {record.get('error')}")
            return
        stats = record["result"]["stats"]
        got = channel_state(stats["capacity_bits"])
        want = expected[(record["tp"], record["attack"])]
        if got != want:
            self.fail(f"{label}: {got}, expected {want}")
        elif got == CLOSED and stats.get("n_samples", 0) <= 0:
            self.fail(f"{label}: closed with zero samples")

    def error(self, label: str, exc: BaseException) -> None:
        self.attempted += 1
        self.fail(f"{label}: {type(exc).__name__}: {exc}")
