"""Workloads of the qsu2 benchmark: a seed becomes a list of invocations.

Each invocation is what one fresh ``qsu2`` process does: an argv run
through ``qsu2.cli.main``, or, for the coproduct, the one library call the
CLI does not expose.  The seed only draws the deformation ``q`` (uniform
in ``0.4 <= |q| <= 0.6``, random sign); the program sees nothing but the
resulting argv.  This module imports nothing from qsu2, so set-up timing
can load it in a fresh interpreter.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("tails", "relations", "crystal")

# Sizes of every invocation.  Tests substitute smaller ones.
CAPS = {
    "tails": 18,
    "relations": 30,
    "near_one": 12,
    "kmax": 500,
    "irrep_dim": 30,
    "coproduct": 8,
    "crystal": 40,
}

# Fixed deformation of the near-q=1 relation check, where the g(k)
# cancellation of the seed shows.
NEAR_ONE_Q = "0.999999"


@dataclass(frozen=True)
class Invocation:
    """One unit of work: a CLI argv, or (empty argv) the coproduct call."""

    name: str  # metric-safe label, reported as cli.<name>.s
    argv: tuple[str, ...] = ()
    q: float = 0.0  # coproduct and tails-oracle parameters
    cap: int = 0
    tail_gen: str | None = None  # generator whose tail norms the oracle checks

    @property
    def csv(self) -> bool:
        """Whether the output is CSV (the coproduct rows are CSV too)."""
        return not self.argv or "csv" in self.argv


def draw_q(seed: int) -> float:
    rng = random.Random(seed)
    magnitude = rng.uniform(0.4, 0.6)
    return magnitude if rng.random() < 0.5 else -magnitude


def invocations(workload: str, seed: int, caps: dict = CAPS) -> list[Invocation]:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    q = draw_q(seed)
    qs = repr(q)
    if workload == "tails":
        cap = caps["tails"]
        return [
            Invocation(f"tails-{gen}", ("tails", "--q", qs, "--cap", str(cap), "--gen", gen),
                       q=q, cap=cap, tail_gen=gen)
            for gen in ("alpha", "beta")
        ]
    if workload == "relations":
        cap = str(caps["relations"])
        return [
            Invocation("verify-relations", ("verify-relations", "--q", qs, "--cap", cap)),
            Invocation("verify-relations-near1",
                       ("verify-relations", "--q", NEAR_ONE_Q, "--cap", str(caps["near_one"]))),
            Invocation("verify-equivalence", ("verify-equivalence", "--q", qs, "--cap", cap)),
            Invocation("decay-R2mR4", ("decay", "--q", qs, "--cap", cap, "--target", "R2mR4")),
            Invocation("decay-Dbeta-csv",
                       ("decay", "--q", qs, "--cap", cap, "--target", "Dbeta", "--format", "csv")),
            Invocation("estimates", ("estimates", "--q", qs, "--kmax", str(caps["kmax"]))),
            Invocation("irrep", ("irrep", "--q", qs, "--z-re", "0.6", "--z-im", "0.8",
                                 "--dim", str(caps["irrep_dim"]))),
            Invocation("coproduct", q=q, cap=caps["coproduct"]),
        ]
    return [Invocation("verify-q0", ("verify-q0", "--cap", str(caps["crystal"])))]
