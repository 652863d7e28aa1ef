"""Seeded aspif program families and the request streams built on them.

Every generator returns the aspif text together with what is known about
it by construction: the answer set, and the facts the output checks need.
Nothing here imports aspexplain, so the generated inputs do not depend on
the code under test, and the same arguments give byte-identical text.

A request stream is a list of rounds.  Each round covers the same grid of
sizes and variants; the seed permutes the round and picks the queried
literals.  A run executes whole rounds, so every run sees the same mix.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

COLORS = ("red", "green", "blue")


@dataclass
class Instance:
    """One generated program and what the generator knows about it."""

    family: str
    size: int
    text: str
    answer: list[str]
    # Named atoms that are false in the answer set.
    false_atoms: list[str]
    expect: dict = field(default_factory=dict)
    path: str = ""  # where the benchmark wrote the text for cold requests


@dataclass
class Request:
    kind: str  # "cold", "session" or "sweep"
    instance: Instance | None = None
    root: str = ""  # cold explain: the --root argument
    sweep_seed: int = 0
    sweep_atoms: int = 0


class _Aspif:
    """Collects aspif statements and hands out atom ids."""

    def __init__(self):
        self.next_id = 1
        self.rules: list[str] = []
        self.outputs: list[str] = []
        self.externals: list[str] = []

    def atom(self, name: str | None = None) -> int:
        aid = self.next_id
        self.next_id += 1
        if name is not None:
            self.outputs.append(f"4 {len(name)} {name} 1 {aid}")
        return aid

    def fact(self, name: str) -> int:
        aid = self.atom(name)
        self.externals.append(f"5 {aid} 2")
        return aid

    def rule(self, head: list[int], body: list[int], choice=False) -> None:
        parts = [1, 1 if choice else 0, len(head), *head, 0, len(body), *body]
        self.rules.append(" ".join(map(str, parts)))

    def weight_rule(self, head: int, lower: int, elems: list[int]) -> None:
        parts = [1, 0, 1, head, 1, lower, len(elems)]
        for lit in elems:
            parts += [lit, 1]
        self.rules.append(" ".join(map(str, parts)))

    def text(self, rules: list[str] | None = None) -> str:
        lines = ["asp 1 0 0", *self.externals,
                 *(self.rules if rules is None else rules),
                 *self.outputs, "0"]
        return "\n".join(lines) + "\n"


# --- ring -------------------------------------------------------------------
# The paper's main use of choice folding: `1 { colored(V,C) : color(C) } 1`
# compiled by the grounder into body, tuple and bound auxiliaries plus a
# `:- body, not ok` test, as in tests/data/coloring.aspif.  Reconstruction
# dominates and is quadratic in the number of statements, while U is empty,
# so the assumption analysis and graph search do almost nothing.

def ring(n: int) -> Instance:
    """3-colouring of an n-vertex ring (n a multiple of 3), colour v mod 3."""
    if n % 3 or n < 3:
        raise ValueError("ring size must be a positive multiple of 3")
    p = _Aspif()
    node = [p.fact(f"node({v})") for v in range(1, n + 1)]
    edges = [(v, v + 1) for v in range(1, n)] + [(1, n)]
    edge = [p.fact(f"edge({v},{w})") for v, w in edges]
    color = [p.fact(f"color({c})") for c in COLORS]
    colored = []
    for v in range(1, n + 1):
        body = p.atom()
        p.rule([body], [node[v - 1]])
        chosen = [p.atom(f"colored({v},{c})") for c in COLORS]
        for ci, atom in enumerate(chosen):
            p.rule([atom], [body, color[ci]], choice=True)
        tuples = []
        for ci, atom in enumerate(chosen):
            t = p.atom()
            p.rule([t], [color[ci], atom])
            tuples.append(t)
        lo, hi, ok = p.atom(), p.atom(), p.atom()
        p.weight_rule(lo, 1, tuples)
        p.weight_rule(hi, 2, tuples)
        p.rule([ok], [lo, -hi])
        p.rule([], [body, -ok])
        colored.append(chosen)
    for ei, (v, w) in enumerate(edges):
        for ci in range(3):
            p.rule([], [edge[ei], colored[v - 1][ci], colored[w - 1][ci]])
    names = ([f"node({v})" for v in range(1, n + 1)]
             + [f"edge({v},{w})" for v, w in edges]
             + [f"color({c})" for c in COLORS])
    true_col = [f"colored({v},{COLORS[v % 3]})" for v in range(1, n + 1)]
    false_col = [f"colored({v},{c})" for v in range(1, n + 1)
                 for c in COLORS if c != COLORS[v % 3]]
    return Instance("ring", n, p.text(), names + true_col, false_col)


# --- loops ------------------------------------------------------------------
# Even negative loops make every b(i) an assumption, so U-shrinking rebuilds
# a graph for every named literal |U|+1 times.  The optional false atom d has
# k rules over disjoint pairs of false b atoms, so ~d has exactly 2^k
# minimal supported sets; k around 12 straddles the 4096-set cap of the
# cross product in the rule-support table.

def loops(n: int, k: int = 0) -> Instance:
    if 2 * k > n:
        raise ValueError("d needs 2k distinct b atoms")
    p = _Aspif()
    a = [p.atom(f"a({i})") for i in range(1, n + 1)]
    b = [p.atom(f"b({i})") for i in range(1, n + 1)]
    c = p.atom("c")
    for i in range(n):
        p.rule([a[i]], [-b[i]])
        p.rule([b[i]], [-a[i]])
    p.rule([c], a)
    false = [f"b({i})" for i in range(1, n + 1)]
    if k:
        d = p.atom("d")
        for j in range(k):
            p.rule([d], [b[2 * j], b[2 * j + 1]])
        false.append("d")
    answer = [f"a({i})" for i in range(1, n + 1)] + ["c"]
    inst = Instance("loops", n, p.text(), answer, false)
    inst.expect = {"u": sorted(f"b({i})" for i in range(1, n + 1)),
                   "d_sets": 2 ** k if k else 0,
                   "d_pairs": [(f"b({2 * j + 1})", f"b({2 * j + 2})")
                               for j in range(k)]}
    return inst


# --- chain ------------------------------------------------------------------
# A positive chain x(i) :- x(i-1) from the fact x(1).  Listed in reverse
# order, the rescanning fixpoints of the well-founded model and of the
# answer-set check take one pass per link, so they turn quadratic; forward
# order is the bypass case where one pass suffices.  Deep tips also test the
# recursion depth of the graph search.

def chain(n: int, reverse: bool) -> Instance:
    p = _Aspif()
    x = [p.fact("x(1)")] + [p.atom(f"x({i})") for i in range(2, n + 1)]
    for i in range(1, n):
        p.rule([x[i]], [x[i - 1]])
    rules = p.rules[::-1] if reverse else p.rules
    inst = Instance("chain", n, p.text(rules),
                    [f"x({i})" for i in range(1, n + 1)], [])
    inst.expect = {"edges": [(f"x({i})", f"x({i - 1})")
                             for i in range(n, 1, -1)] + [("x(1)", "⊤")]}
    return inst


def reference_work() -> None:
    """A fixed amount of generator work; its time gauges machine speed."""
    ring(30)
    chain(200, True)


# --- request streams ----------------------------------------------------------
# Grids are sized so that the median and the tail rank of a run fall inside
# a group of equal requests or a dense stretch of sizes, not at a gap
# between two sizes, where one slow request would move them a whole step.
# In a 24-second run the workloads fit about 9 rounds of ring, 5 of loops,
# 4 of chain and 90 of sweep at the commit that added this benchmark.

RING_SIZES = (30, 45, 60, 90, 120)
# Thirteen requests in each order: forward in third-octave steps from 64 to
# 1024, reverse in quarter-octave steps from 64 to 362, the last one three
# times.  Reverse stops at 362 so that a run holds several rounds (reverse
# 1024 alone takes seconds), and its largest size appears three times so
# that the tail rank, ten below the failing forward 1024, stays on it for 3
# to 10 rounds.  The graph search hits the recursion limit near 900 links,
# at a depth that depends on the caller's stack; 813 stays well below it.
CHAIN_FORWARD = tuple(round(64 * 2 ** (j / 3)) for j in range(13))
CHAIN_REVERSE = tuple(round(64 * 2 ** (j / 4)) for j in range(11)) + (362,) * 2
LOOP_SIZES = (20, 40, 60, 80, 100)
# (n, k) of the sessions with d: k spans the 4096 cap.  The k = 11 session,
# which sits at the median, appears three times, and two sessions sit at
# k = 12, so that the median and the tail rank (ten below the failing
# k = 13 sessions) stay inside a group of like requests for 4 to 10 rounds.
LOOP_D = ((24, 11), (24, 11), (24, 11), (24, 12), (28, 12), (26, 13))
# The acceptance sweep's traffic: many tiny random programs, where the
# brute-force enumeration dominates and per-call overheads matter more than
# scaling.  Twelve atoms would take a quarter second per program.  Round r
# takes the random_program seeds 6r .. 6r+5, as the acceptance sweep
# counts its seeds up, so every run measures the same programs and the run
# seed only orders each round: drawing the programs from the run seed moved
# the median latency by about 5% between seeds.
SWEEP_ATOMS = (8, 9, 10)
SWEEP_PER_ROUND = 6


def build_instances(workload: str) -> list[Instance]:
    """The fixed grid of one round, generated once per run."""
    if workload == "ring":
        return [ring(n) for n in RING_SIZES]
    if workload == "chain":
        return ([chain(n, False) for n in CHAIN_FORWARD]
                + [chain(n, True) for n in CHAIN_REVERSE])
    if workload == "loops":
        return ([loops(n) for n in LOOP_SIZES]
                + [loops(n, k) for n, k in LOOP_D])
    if workload == "sweep":
        return []
    raise ValueError(f"unknown workload {workload!r}")


def make_round(workload: str, instances: list[Instance],
               rng: random.Random, number: int) -> list[Request]:
    """Round `number` of requests; the seed picks roots and the order."""
    if workload == "ring":
        reqs = []
        for inst in instances:
            v = rng.randrange(1, inst.size + 1)
            good = COLORS[v % 3]
            bad = rng.choice([c for c in COLORS if c != good])
            reqs.append(Request("cold", inst, f"colored({v},{good})"))
            reqs.append(Request("cold", inst, f"not colored({v},{bad})"))
    elif workload == "chain":
        reqs = [Request("cold", inst, f"x({inst.size})") for inst in instances]
    elif workload == "loops":
        reqs = [Request("session", inst) for inst in instances]
    else:
        first = number * SWEEP_PER_ROUND
        reqs = [Request("sweep", sweep_seed=first + i,
                        sweep_atoms=SWEEP_ATOMS[i % len(SWEEP_ATOMS)])
                for i in range(SWEEP_PER_ROUND)]
    rng.shuffle(reqs)
    return reqs
