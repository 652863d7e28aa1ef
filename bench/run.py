"""Stage-level benchmark for aspexplain.

    python3 bench/run.py --workload ring --seed 1 --seconds 24 --trace 0

Generates one of four program families from the seed (see families.py),
drives them through aspexplain's public API in this process as a closed
loop with one client, checks every output (checks.py) outside the timed
interval, and prints one JSON line of metrics last.  With --trace 0 these
are the end-to-end metrics; with --trace 1 each round is run untraced and
then traced (spans.py), and the per-layer metrics are printed instead.

Requests:
  cold     aspexplain.cli.main(["explain", FILE, ...]) in process: parse,
           reconstruct, check, tables, assumptions, one graph, render.
  session  load and check once, build the tables and U once, then one
           graph and its DOT for every named literal.
  sweep    random_program + enumerate_answer_sets, then a session with
           validate_egraph for every answer set.

A request fails if it raises, exits non-zero or its output fails a check.
Failed requests rank above every success in the latency percentiles.

Times are scaled to a nominal machine speed.  While requests run, a timer
signal every TICK_S seconds times a fixed piece of the benchmark's own
generator work (families.reference_work, which does not touch aspexplain),
also in the middle of long requests.  A request's wall time, less the time
those ticks took, is divided by the median reference time within a second
of it over REFERENCE_S.  The measuring window counts scaled time too, so
the number of rounds, and with it the rank of the tail, does not follow the
machine's speed.  On a shared host whose speed drifts by a third within a
minute, this keeps the run-to-run spread of the medians to a few percent.
Per-layer times stay unscaled and include the ticks.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import itertools
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import families
from spans import Tracer, layer_metrics, layer_times

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("ring", "loops", "chain", "sweep")
SETUP_REPEATS = 7
# Time of families.reference_work() at the nominal machine speed, and the
# period of the timer signal that samples it.
REFERENCE_S = 0.0023
TICK_S = 0.1

# The layer each workload was chosen to stress (largest self time).
PREDICTED_DOMINANT = {
    "ring": {"ground.reconstruct_s"},
    "chain": {"assumptions.well_founded_s"},
    "loops": {"assumptions.shrink_build_s", "support.build_er_s"},
    "sweep": {"oracle.enumerate_s"},
}

# Failure kinds that are defects of the program at the commit that added
# this benchmark.  They count as failed requests; any other kind marks the
# run incorrect.
KNOWN_DEFECTS = {
    # build_egraph recurses once per chain link and exceeds the default
    # recursion limit on tips past about 900.
    "chain": {"RecursionError"},
    # The false-atom cross product is cut to 4096 sets without notice, so
    # ~d loses sets once k > 12.
    "loops": {"check:d_row"},
}


@dataclass
class Outcome:
    latency: float  # wall seconds, less the speedometer's ticks within
    failure: str | None
    literals: int = 0
    # Session graphs whose DOT merges two distinct nodes of the same label.
    collisions: int = 0
    start: float = 0.0  # perf_counter() at the request's start and end
    end: float = 0.0
    scaled: float = 0.0  # latency at the nominal machine speed


class Speedometer:
    """Samples the machine's speed while requests run.

    A timer signal every TICK_S seconds times families.reference_work(),
    also in the middle of a long request; the time the handler takes is
    taken out of the request it interrupted.  It is also timed on entry and
    exit, so that every interval has a sample within a second.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.times: list[float] = []
        self.ok: list[bool] = []

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        try:
            families.reference_work()
            ok = True
        except RecursionError:  # the interrupted stack was nearly full
            ok = False
        self.times.append(time.perf_counter() - start)
        self.starts.append(start)
        self.ok.append(ok)

    def __enter__(self):
        self._tick(None, None)
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick(None, None)

    def _between(self, a: float, b: float) -> range:
        return range(bisect.bisect_left(self.starts, a),
                     bisect.bisect_left(self.starts, b))

    def ticks(self, a: float, b: float) -> float:
        """Seconds spent in the handler between a and b."""
        return sum(self.times[i] for i in self._between(a, b))

    def slowness(self, a: float = -math.inf, b: float = math.inf) -> float:
        """Reference time within a second of [a, b] over the nominal one
        (the median over the whole run if no tick fell there)."""
        near = [self.times[i] for i in self._between(a - 1.0, b + 1.0)
                if self.ok[i]]
        if not near:
            near = [t for t, ok in zip(self.times, self.ok) if ok]
        return statistics.median(near) / REFERENCE_S


# The runners import aspexplain names at call time, so that they pick up
# the functions the tracer patched in.  Each returns (start, end, output).

def run_cold(req, work: Path):
    from aspexplain import cli
    out = work / "out.dot"
    if out.exists():
        out.unlink()
    argv = ["explain", req.instance.path, "--answer",
            " ".join(req.instance.answer), "--root", req.root,
            "--out", str(out)]
    start = time.perf_counter()
    try:
        rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    end = time.perf_counter()
    if rc != 0:
        raise checks.CheckFailed(f"exit:{rc}")
    return start, end, out.read_text(encoding="utf-8")


def explain_all(g, answer_names, validate: bool):
    """One session: tables and U once, then every named literal."""
    from aspexplain import (build_egraph, build_er, constraint_preprocessing,
                            merge_supports, minimal_assumption_sets, nodes,
                            to_dot, validate_egraph)
    A = g.answer_from_names(answer_names)
    er = build_er(g, A)
    table = merge_supports(er, constraint_preprocessing(g, A))
    report = minimal_assumption_sets(g, A, er=er, table=table)
    graphs = {}
    for aid in sorted(g.named_ids()):
        name = g.display_atom(aid)
        graph = build_egraph(table, report.chosen_u,
                             nodes.literal_node(name, aid in A),
                             max_graphs=1)[0]
        if validate and not validate_egraph(graph, table, report.chosen_u):
            raise checks.CheckFailed("check:validate_egraph", name)
        graphs[name if aid in A else "~" + name] = graph, to_dot(graph)
    return er, report, graphs


def run_session(req, work: Path):
    from aspexplain import check_answer_set, parse_aspif, reconstruct
    inst = req.instance
    start = time.perf_counter()
    g = reconstruct(parse_aspif(inst.text))
    accepted = check_answer_set(g, inst.answer)
    er, report, graphs = explain_all(g, inst.answer, validate=False)
    return start, time.perf_counter(), (accepted, er, report, graphs)


def run_sweep(req, work: Path):
    from aspexplain import enumerate_answer_sets, random_program
    start = time.perf_counter()
    g = random_program(req.sweep_seed, n_atoms=req.sweep_atoms)
    models = enumerate_answer_sets(g)
    sessions = [(model, explain_all(g, sorted(model), validate=True)[2])
                for model in models]
    end = time.perf_counter()
    names = [g.display_atom(aid) for aid in g.named_ids()]
    return start, end, (names, sessions)


def check_graphs(graphs, expected_roots) -> int:
    """Checks one session's graphs; returns the DOT label collisions."""
    if set(graphs) != expected_roots:
        raise checks.CheckFailed("literal_set")
    for graph, dot in graphs.values():
        checks.check_egraph(graph)
    return sum(checks.label_collisions(dot) > 0 for _, dot in graphs.values())


def check_output(req, output) -> tuple[int, int]:
    """Checks one request's output; returns (literals, DOT collisions)."""
    if req.kind == "cold":
        checks.check_cold(req, output)
        return 1, 0
    if req.kind == "session":
        from aspexplain import dump_table
        accepted, er, report, graphs = output
        inst = req.instance
        if not accepted:
            raise checks.CheckFailed("answer_rejected")
        if sorted(report.chosen_u) != inst.expect["u"]:
            raise checks.CheckFailed("u")
        if inst.expect["d_sets"]:
            checks.check_d_row(dump_table(er), inst.expect["d_pairs"],
                               inst.expect["d_sets"])
        roots = set(inst.answer) | {"~" + a for a in inst.false_atoms}
        return len(graphs), check_graphs(graphs, roots)
    names, sessions = output
    literals = collisions = 0
    for model, graphs in sessions:
        roots = {n if n in model else "~" + n for n in names}
        collisions += check_graphs(graphs, roots)
        literals += len(graphs)
    return literals, collisions


RUNNERS = {"cold": run_cold, "session": run_session, "sweep": run_sweep}


def execute(req, work: Path, meter: Speedometer, tracer: Tracer | None = None,
            request_id: int = 0) -> Outcome:
    outcome = _execute(req, work, tracer, request_id)
    outcome.latency -= meter.ticks(outcome.start, outcome.end)
    # Garbage from this request is not left for the next one to pay.
    gc.collect()
    return outcome


def _execute(req, work, tracer, request_id) -> Outcome:
    begin = time.perf_counter()
    try:
        if tracer is None:
            start, end, output = RUNNERS[req.kind](req, work)
        else:
            with tracer.span("request:" + req.kind, request_id):
                start, end, output = RUNNERS[req.kind](req, work)
    except checks.CheckFailed as exc:  # exit code or in-request check
        end = time.perf_counter()
        return Outcome(end - begin, exc.name, start=begin, end=end)
    except Exception as exc:  # a raising request is a failed request
        end = time.perf_counter()
        return Outcome(end - begin, type(exc).__name__, start=begin, end=end)
    try:
        literals, collisions = check_output(req, output)
    except checks.CheckFailed as exc:
        return Outcome(end - start, "check:" + exc.name, start=start, end=end)
    return Outcome(end - start, None, literals, collisions, start, end)


def latency_stats(outcomes: list[Outcome]) -> dict:
    """Median and tail latency, with failures ranked above every success.

    The tail is the highest rank with at least ten samples beyond it.  A
    rank held by a failure reads as the slowest request of the run, a lower
    bound on a latency that no limit accepts.
    """
    ranked = sorted(outcomes, key=lambda o: (o.failure is not None, o.scaled))
    worst = max(o.scaled for o in outcomes)
    n = len(ranked)
    tail_rank = max(n - 11, 0)

    def value(rank: int) -> float:
        return ranked[rank].scaled if ranked[rank].failure is None else worst

    return {"p50": value((n - 1) // 2), "tail": value(tail_rank),
            "tail_pct": 100.0 * (tail_rank + 1) / n, "n": n,
            "tail_on_failure": ranked[tail_rank].failure is not None}


def setup_time(work: Path) -> float:
    """Median over fresh interpreters of importing aspexplain and serving
    one small cold explain request, scaled by the median of five timings
    of the reference work in the same interpreter just before."""
    inst = families.ring(3)
    path = work / "setup.aspif"
    path.write_text(inst.text, encoding="utf-8")
    argv = ["explain", str(path), "--answer", " ".join(inst.answer),
            "--root", "colored(1,green)", "--out", str(work / "setup.dot")]
    code = ("import sys, time\n"
            f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
            "import families, statistics\n"
            "def reference():\n"
            "    start = time.perf_counter()\n"
            "    families.reference_work()\n"
            "    return time.perf_counter() - start\n"
            "reference = statistics.median(reference() for _ in range(5))\n"
            "start = time.perf_counter()\n"
            f"sys.path.insert(0, {str(SRC)!r})\n"
            "import aspexplain, aspexplain.cli\n"
            f"rc = aspexplain.cli.main({argv!r})\n"
            "setup = time.perf_counter() - start\n"
            "print(setup, reference) if rc == 0 else print(-1, 1)\n")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120,
                              cwd=ROOT)
        fields = proc.stdout.split() if proc.returncode == 0 else []
        if len(fields) != 2 or float(fields[0]) < 0:
            raise RuntimeError("setup probe failed: " + proc.stderr[-500:])
        samples.append(float(fields[0]) * REFERENCE_S / float(fields[1]))
    return statistics.median(samples)


def measure(workload, rng, instances, seconds, work, tracer=None):
    """Whole rounds while the next one is expected to end in (scaled) time.

    With a tracer, each round runs untraced and then traced.  Returns the
    untraced rounds and the traced rounds, each a list of outcome lists,
    and the run's median slowness.
    """
    plain, traced = [], []
    ids = itertools.count()
    elapsed = 0.0
    with Speedometer() as meter:
        while True:
            round_start = time.perf_counter()
            reqs = families.make_round(workload, instances, rng, len(plain))
            plain.append([execute(req, work, meter) for req in reqs])
            if tracer is not None:
                tracer.install()
                try:
                    traced.append([execute(req, work, meter, tracer,
                                           next(ids)) for req in reqs])
                finally:
                    tracer.uninstall()
            round_end = time.perf_counter()
            took = (round_end - round_start) \
                / meter.slowness(round_start, round_end)
            elapsed += took
            if elapsed + took > seconds:
                break
    for outcome in itertools.chain(*plain, *traced):
        outcome.scaled = outcome.latency \
            / meter.slowness(outcome.start, outcome.end)
    return plain, traced, meter.slowness()


# The doubling probe: each layer's self time at 2N over its time at N, on
# the family where that layer dominates (about 2 is linear, 4 quadratic).
PROBE_FAMILIES = {
    "ring": (families.ring, (60, 120), "cold"),
    "chain-reverse": (lambda n: families.chain(n, True), (150, 300), "cold"),
    "chain-forward": (lambda n: families.chain(n, False), (250, 500), "cold"),
    "loops": (families.loops, (40, 80), "session"),
}
PROBES = {
    "ground.reconstruct_x2": ("ring", "ground.reconstruct_s"),
    "assumptions.well_founded_x2": ("chain-reverse",
                                    "assumptions.well_founded_s"),
    "oracle.check_x2": ("chain-reverse", "oracle.check_s"),
    "assumptions.shrink_x2": ("loops", "assumptions.shrink_build_s"),
    "egraph.build_x2": ("chain-forward", "egraph.build_s"),
}


def doubling_probe(work: Path) -> dict[str, float]:
    """Layer self times are divided by the machine's slowness around each
    probe request, as latencies are."""
    times = {}
    for family, (make, sizes, kind) in PROBE_FAMILIES.items():
        for n in sizes:
            inst = make(n)
            inst.path = str(work / f"probe-{family}-{n}.aspif")
            Path(inst.path).write_text(inst.text, encoding="utf-8")
            root = "colored(1,green)" if family == "ring" else f"x({n})"
            tracer = Tracer()
            tracer.install()
            try:
                with Speedometer() as meter:
                    outcome = execute(families.Request(kind, inst, root),
                                      work, meter, tracer)
            finally:
                tracer.uninstall()
            if outcome.failure is not None:
                raise RuntimeError(f"probe {family} {n}: {outcome.failure}")
            slowness = meter.slowness(outcome.start, outcome.end)
            times[family, n] = {layer: t / slowness for layer, t
                                in layer_times(tracer.spans).items()}
    ratios = {}
    for metric, (family, layer) in PROBES.items():
        small, large = (times[family, n].get(layer, 0.0)
                        for n in PROBE_FAMILIES[family][1])
        ratios[metric] = large / small if small else 0.0
    return ratios


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "aspexplain" / "__init__.py").is_file():
        print(f"error: no aspexplain sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, work: Path) -> int:
    rng = random.Random(args.seed)
    setup = None if args.trace else setup_time(work)
    instances = families.build_instances(args.workload)
    for i, inst in enumerate(instances):
        inst.path = str(work / f"in-{i}.aspif")
        Path(inst.path).write_text(inst.text, encoding="utf-8")

    tracer = Tracer() if args.trace else None
    probe = doubling_probe(work) if args.trace else {}
    plain, traced, slowness = measure(args.workload, rng, instances,
                                      args.seconds, work, tracer)
    rounds = traced if args.trace else plain
    outcomes = [o for r in rounds for o in r]

    failures: dict[str, int] = {}
    for o in outcomes:
        if o.failure is not None:
            failures[o.failure] = failures.get(o.failure, 0) + 1
    unexpected = set(failures) - KNOWN_DEFECTS.get(args.workload, set())
    literals = sum(o.literals for o in outcomes)
    stats = latency_stats(outcomes)

    if args.trace:
        metrics = layer_metrics(tracer.spans, literals)
        metrics.update(probe)
        metrics["trace.overhead_frac"] = \
            sum(o.scaled for o in outcomes) \
            / sum(o.scaled for r in plain for o in r) - 1
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{args.workload}-{args.seed}.jsonl")
        timed = {k: v for k, v in metrics.items() if k.endswith("_s")}
        top = max(timed, key=timed.get)
        verdict = "as predicted" if top in PREDICTED_DOMINANT[args.workload] \
            else "NOT as predicted"
        print(f"# dominant layer: {top} "
              f"({timed[top] / max(sum(timed.values()), 1e-12):.0%} of "
              f"layer self time, {verdict}); coverage "
              f"{metrics['trace.coverage_frac']:.1%} of request time")
        units = {k: "s" if k.endswith("_s") else
                 "ratio" if k.endswith(("_x2", "_frac", "_per_literal"))
                 else "count" for k in metrics}
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "setup_s": setup,
            "latency_p50_s": stats["p50"],
            "latency_tail_s": stats["tail"],
            "literals_per_s": literals / sum(o.scaled for o in outcomes),
            "peak_rss_mb": peak_mb,
        }
        units = {"setup_s": "s", "latency_p50_s": "s", "latency_tail_s": "s",
                 "literals_per_s": "1/s", "peak_rss_mb": "MB"}
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: "
          f"machine at {1 / slowness:.2f} of nominal speed; "
          f"{len(rounds)} rounds, {len(outcomes)} requests, "
          f"{literals} literals, scaled p50 {stats['p50']:.4f} s, tail p{stats['tail_pct']:.1f} "
          f"(n={stats['n']}) {stats['tail']:.4f} s"
          f"{' (on failures)' if stats['tail_on_failure'] else ''}, "
          f"failed_frac {sum(failures.values()) / len(outcomes):.4f} "
          f"{json.dumps(failures, sort_keys=True)}; "
          f"{sum(o.collisions for o in outcomes)} session graphs whose DOT "
          f"merges same-label nodes")
    if unexpected:
        print(f"# unexpected failure kinds: {sorted(unexpected)}")
    print(json.dumps({
        "correct": not unexpected,
        "attempted": len(outcomes),
        "failed": sum(failures.values()),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
