"""The benchmark's workloads: which CLI jobs one pass of each runs, and why.

Every workload runs all five subcommands, so that every end-to-end metric
has a value on every workload; the mix differs, so that each workload
stresses different layers.  The small shares are marked "minor" below.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Alg:
    """One generator set, as the CLI names it."""

    label: str
    algebra: str
    n: int | None = None
    two_s: int | None = None

    def argv(self) -> list[str]:
        out = ["--algebra", self.algebra]
        if self.n is not None:
            out += ["--n", str(self.n)]
        if self.two_s is not None:
            out += ["--two-s", str(self.two_s)]
        return out


SU2 = Alg("su2", "su", n=2)
SU3 = Alg("su3", "su", n=3)
SU4 = Alg("su4", "su", n=4)
SU5 = Alg("su5", "su", n=5)
SU8 = Alg("su8", "su", n=8)
SPIN1 = Alg("spin1", "spin", two_s=2)
SPIN3_2 = Alg("spin3_2", "spin", two_s=3)
SPIN7_2 = Alg("spin7_2", "spin", two_s=7)
G2 = Alg("g2", "g2")
CLIFFORD = Alg("clifford", "clifford")

# Algebras whose Bloch-manifold yield and oracle agreement are reported per
# algebra by the traced run.
SCAN_ALGEBRAS = (SU3, SPIN3_2, G2, SU8)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scans: tuple = ()         # (Alg, samples): bloch-scan jobs
    shell: tuple = ()         # Alg: boundary-shell library pass
    critical: tuple = ()      # (Alg, max_rank)
    verify: tuple = ()        # (Alg, copies): copies run with distinct seeds
    applies: tuple = ()       # (Alg, count): apply requests in the stream
    gens: tuple = ()          # Alg: one gen request each, mixed into the stream

    def algebras(self) -> list[Alg]:
        """Every generator set the workload uses, once each."""
        seen = {}
        for a in (
            [a for a, _ in self.scans] + list(self.shell) + [a for a, _ in self.critical]
            + [a for a, _ in self.verify] + [a for a, _ in self.applies] + list(self.gens)
        ):
            seen.setdefault(a.label, a)
        return list(seen.values())


# The minor share each workload carries so every end-to-end metric is defined.
_MINOR_REQUESTS = dict(applies=((SU2, 12), (SPIN1, 12), (CLIFFORD, 12)), gens=(SU2, SPIN1, CLIFFORD))
_MINOR_IDENTITIES = dict(critical=((SPIN1, 3), (SU3, 2)), verify=((SPIN1, 1), (CLIFFORD, 1)))

WORKLOADS = {
    w.name: w
    for w in (
        # Bloch oracles, matcore eigen/charpoly work and CSV writing dominate;
        # channel is idle.  Ball samples never reach the manifold boundary
        # (g2 and su(8) yield no members at all), so the shell pass puts
        # vectors at r(u)(1 +- delta) where the charpoly oracle can be wrong.
        Workload(
            name="scan",
            why="bloch-scan on su(3), spin-3/2, g2, su(8) plus boundary-shell oracle checks: "
                "bloch and matcore eigen/charpoly work and CSV writing dominate",
            scans=((SU3, 500), (SPIN3_2, 500), (G2, 500), (SU8, 500)),
            shell=SCAN_ALGEBRAS,
            **_MINOR_REQUESTS,
            **_MINOR_IDENTITIES,
        ),
        # channel.find_identity / critical_values, sym_product and structure
        # tensors dominate; bloch oracles are idle.  spin-3/2 verify cost
        # depends on the seed (random-restart purity search), so it runs
        # with two seeds per pass to steady verify_s.
        Workload(
            name="identities",
            why="critical --max-rank 3 and verify over su(n), spin, g2, Clifford: identity "
                "fitting, sym_product and structure tensors dominate",
            critical=((SU5, 3), (SU3, 3), (G2, 3), (SPIN1, 3), (SPIN3_2, 3), (CLIFFORD, 3)),
            verify=((SU4, 1), (SPIN1, 1), (SPIN3_2, 2), (G2, 1), (CLIFFORD, 1)),
            scans=((SU3, 1000),),
            **_MINOR_REQUESTS,
        ),
        # Many small applies: fixed per-request costs (generator build,
        # sampled depolarizing detection, validation, JSON) dominate, not
        # identity fitting.  Caching or exact depolarizing detection should
        # move apply latency here and leave the scan metrics unchanged.
        # The counts put p50 inside the cheap cluster (su(2), su(4), spin-1,
        # spin-7/2: 63% of requests) and p90 mid-way into the g2 cluster
        # (the slowest 21%), away from the edges between clusters, where a
        # quantile jumps with small shifts in machine speed.
        Workload(
            name="requests",
            why="seeded stream of small apply requests (raw, {v}, {v,w} inputs) with gen "
                "requests mixed in: per-request fixed costs in channel, repgen and JSON dominate",
            applies=((SU2, 12), (SU4, 12), (SPIN1, 12), (SPIN7_2, 12), (CLIFFORD, 6),
                     (SU8, 6), (G2, 16)),
            gens=(SU2, SU4, SU8, SPIN1, SPIN7_2, G2, CLIFFORD),
            scans=((SU3, 200),),
            critical=((SU2, 2), (SPIN1, 2)),
            verify=((SPIN1, 1), (CLIFFORD, 1)),
        ),
    )
}
