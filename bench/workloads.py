"""The benchmark's workloads: which suite runners one pass calls, and how.

Every workload runs at grid level 5 and takes its seed from the command
line (default 7, the seed the project's baseline uses).
"""

from __future__ import annotations

from dataclasses import dataclass

LEVEL = 5

# lcm(8 (n, d) pairs, 4 field kinds, 3 endpoint alphas): every mix of the
# trial loop appears equally often
FIELD_TRIALS = 24


@dataclass(frozen=True)
class Workload:
    name: str
    suites: tuple  # (suite name, trial count or None for the suite default)
    threads: int  # SETLP_THREADS for the pass
    why: str


_FIELD_SUITES = (("marcinkiewicz", FIELD_TRIALS), ("endpoints", FIELD_TRIALS))

WORKLOADS = {w.name: w for w in (
    Workload("field-trials", _FIELD_SUITES, 1,
             "the trial loop users run most: grid topology and body algebra do nearly "
             "all the work, dual search none"),
    Workload("field-trials-2w", _FIELD_SUITES, 2,
             "the same pass on two trial workers, the only workload that measures trial "
             "scheduling and parallelism"),
    Workload("weights-duals", (("reverse-factorization", None),), 1,
             "dual search over distinct matrix pairs and the A_p ladder; little body work, "
             "so trial-loop tuning must not move it"),
    Workload("gm-norms", (("riesz-thorin", 16),), 1,
             "geometric-mean double duals that repeat their inputs, plus mid-sized body "
             "work on n=1 fields: where a reuse cache shows"),
)}


def configs(workload: Workload, seed: int, level: int = LEVEL) -> list:
    """(suite, ExperimentConfig) pairs that one pass runs, in order."""
    from setlp.harness import ExperimentConfig

    return [(suite, ExperimentConfig(seed=seed, level=level, trials=trials))
            for suite, trials in workload.suites]


def trials_per_pass(workload: Workload) -> int:
    from setlp.harness import DEFAULT_TRIALS

    return sum(DEFAULT_TRIALS[suite] if trials is None else trials
               for suite, trials in workload.suites)
