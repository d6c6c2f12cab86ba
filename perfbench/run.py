#!/usr/bin/env python3
"""Benchmark of the dfuse pipeline, driven through ``dfuse.cli.cli_dispatch``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The program is imported from the checkout's
``src/`` (compiled from source, never from cached bytecode) in this one
process, with one thread. Phases:

1. Set-up, ``setup_reps`` times: a fresh import of the program plus the
   workload's set-up commands. ``setup_s`` is the median.
2. Timed rounds of the workload's commands, repeated until ``--seconds`` have
   passed and at least two rounds ran. Each command is one operation; a
   nonzero exit code counts as failed. ``run_s`` is the median round time.
   With ``--trace 1`` the first round runs untraced and the rest traced, so
   the difference is the tracing overhead.
3. Output checks on the last round (``checks.py``), and a determinism check:
   the SHA-256 of every artifact must agree across set-up repetitions and
   across rounds, traced or not.

Times are scaled to a reference CPU speed: a SIGALRM handler runs a short
fixed probe every ``PROBE_PERIOD_S`` and the measured wall time is
multiplied by ``REF_PROBE_S / mean probe time``. The same handler samples the
resident set size for ``peak_rss_mb``. The handler's own time is subtracted.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; trace spans and results are written
under ``perfbench_runs/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / "perfbench_runs"

PROBE_PERIOD_S = 0.1
PROBE_ITERS = 30
# Typical probe time on the reference machine (2 vCPU Xeon, Python 3.11.7,
# numpy 2.4.6), so that reported seconds stay close to wall seconds there.
REF_PROBE_S = 0.0015


class Sampler:
    """SIGALRM-driven probe of CPU speed and resident set size.

    A signal handler keeps the process single-threaded. It runs between
    bytecodes of whatever the program is doing, so a long native call delays
    a sample but cannot be torn by it.
    """

    def __init__(self):
        self._statm = os.open("/proc/self/statm", os.O_RDONLY)
        self._page = os.sysconf("SC_PAGE_SIZE")
        rng = np.random.default_rng(0)
        self._probe_x = rng.standard_normal((64, 32))
        self._probe_w = rng.standard_normal((32, 32))
        self.reset()

    def reset(self) -> None:
        self.peak_rss = self.rss()
        self.probes: list[float] = []
        self.cost = 0.0

    def rss(self) -> int:
        return int(os.pread(self._statm, 128, 0).split()[1]) * self._page

    def probe(self) -> float:
        """Seconds a fixed run of small numpy calls takes at the current CPU speed.

        Small matrix products driven from Python, like the program's own
        inner loops, track its speed better than a pure-Python loop does.
        """
        x, w = self._probe_x, self._probe_w
        start = time.perf_counter()
        for _ in range(PROBE_ITERS):
            np.tanh(np.einsum("ij,kj->ik", x, w, optimize=False))
        return time.perf_counter() - start

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.peak_rss = max(self.peak_rss, self.rss())
        self.probes.append(self.probe())
        self.cost += time.perf_counter() - start

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False

    def close(self) -> None:
        os.close(self._statm)

    @contextlib.contextmanager
    def measure(self, sink: list):
        """Append ``(wall, handler time, probes)`` of the block to ``sink``.

        A probe just before and just after the block, outside its wall time,
        gives even a block shorter than the sampling period a speed reading.
        """
        before = self.probe()
        probes0, cost0 = len(self.probes), self.cost
        start = time.perf_counter()
        try:
            yield
        finally:
            wall = time.perf_counter() - start
            inside = self.probes[probes0:]
            sink.append((wall, self.cost - cost0, [before, *inside, self.probe()]))


def combine(parts: list) -> float:
    """Wall time of measured blocks minus handler time, scaled to the reference speed."""
    wall = sum(p[0] for p in parts)
    cost = sum(p[1] for p in parts)
    probes = [x for p in parts for x in p[2]]
    return (wall - cost) * REF_PROBE_S / statistics.fmean(probes)


def fail(message: str, code: int = 1):
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(code)


def import_program():
    """Import ``dfuse`` afresh from the checkout's source; return the CLI module."""
    for name in [m for m in sys.modules if m == "dfuse" or m.startswith("dfuse.")]:
        del sys.modules[name]
    cli = importlib.import_module("dfuse.cli")
    if SRC.resolve() not in Path(cli.__file__).resolve().parents:
        fail(f"dfuse was imported from {cli.__file__}, not from {SRC}")
    return cli


def digests(directory: Path) -> dict[str, str]:
    out = {}
    for path in sorted(directory.rglob("*")):
        if path.is_file():
            with open(path, "rb") as fh:  # in chunks, so hashing adds no memory peak
                out[str(path.relative_to(directory))] = hashlib.file_digest(fh, "sha256").hexdigest()
    return out


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def run_command(cli, argv: list[str]) -> tuple[int, str]:
    """Exit code and captured output of one command.

    An exception that escapes ``cli_dispatch`` would end a command-line run
    with a traceback and exit code 1, so it counts the same here.
    """
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            code = cli.cli_dispatch(argv)
        except Exception:
            traceback.print_exc()
            code = 1
    return code, buf.getvalue()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"{spec_path} not found")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    if not (SRC / "dfuse" / "cli.py").is_file():
        fail(f"no program source at {SRC}")

    # Compile the program from source on every import: no bytecode is read or written.
    sys.dont_write_bytecode = True
    sys.pycache_prefix = str(RUNS / "no-bytecode")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))

    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    work = fresh_dir(RUNS / f"work-{workload.name}-{os.getpid()}")
    sampler = Sampler()
    try:
        return _run(args, spec, workload, work, sampler)
    finally:
        sampler.close()
        shutil.rmtree(work, ignore_errors=True)


def _run(args, spec, workload, work: Path, sampler: Sampler) -> int:
    setup_dir = work / "setup"
    out_dir = work / "round"
    problems: list[str] = []

    # 1. set-up
    setup_times, setup_walls, setup_digests = [], [], None
    cli = None
    with sampler:
        for _ in range(workload.setup_reps):
            fresh_dir(setup_dir)
            parts = []
            with sampler.measure(parts):
                cli = import_program()
                for cmd in workload.setup(args.seed, setup_dir):
                    code, text = run_command(cli, cmd)
                    if code != 0:
                        fail(f"set-up command {cmd[0]} exited {code}: {text.strip()[-300:]}", 2)
            setup_times.append(combine(parts))
            setup_walls.append(sum(p[0] for p in parts))
            got = digests(setup_dir)
            if setup_digests is not None and got != setup_digests:
                problems.append("set-up artifacts differ between repetitions")
            setup_digests = got

    # 2. timed rounds
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
    round_times, round_walls, traced_summaries = [], [], []
    reference, attempted, failed, last_stdout = None, 0, 0, ""
    rss_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    sampler.reset()
    begin = time.perf_counter()
    with sampler:
        while True:
            traced = tracer is not None and len(round_times) >= 1
            if traced and len(round_times) == 1:
                tracer.install()
            fresh_dir(out_dir)
            first_span = len(tracer.spans) if traced else 0
            parts, stdout = [], []
            for cmd in workload.round(args.seed, setup_dir, out_dir):
                span = tracer.span(f"cli.{cmd[0]}") if traced else contextlib.nullcontext()
                with sampler.measure(parts), span:
                    code, text = run_command(cli, cmd)
                attempted += 1
                failed += code != 0
                stdout.append(text)
            round_times.append(combine(parts))
            round_walls.append(sum(p[0] for p in parts))
            last_stdout = "".join(stdout)
            got = digests(out_dir)
            if reference is None:
                reference = got
            elif got != reference:
                changed = sorted(k for k in got.keys() | reference.keys()
                                 if got.get(k) != reference.get(k))
                problems.append(f"round {len(round_times)} artifacts differ from round 1: "
                                + ", ".join(changed[:5]))
            if traced:
                traced_summaries.append(tracer.summary(first_span))
                tracer.reset()
            enough = len(round_times) >= 2 and (tracer is None or traced_summaries)
            if enough and time.perf_counter() - begin >= args.seconds:
                break
    rss_after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    # A new lifetime high-water mark was set during the rounds, so it is exact;
    # otherwise the rounds peaked below set-up and the sampled peak stands.
    peak_rss = rss_after if rss_after > rss_before else sampler.peak_rss
    if tracer is not None:
        tracer.remove()

    # 3. output checks, outside the timed phase; also after a failed command,
    # so that no output of the last round goes unchecked
    try:
        problems += workload.check(args.seed, setup_dir, out_dir, last_stdout)
    except Exception as exc:  # a check that cannot read an output fails the run
        problems.append(f"output check raised {type(exc).__name__}: {exc}")

    for line in problems:
        print(f"check failed: {line}")
    rounds = len(round_times)
    print(f"{workload.name} seed {args.seed}: {rounds} rounds, round s "
          + " ".join(f"{t:.3f}" for t in round_times)
          + "; wall s " + " ".join(f"{t:.3f}" for t in round_walls)
          + "; set-up s " + " ".join(f"{t:.3f}" for t in setup_times)
          + "; set-up wall s " + " ".join(f"{t:.3f}" for t in setup_walls)
          + f"; probe mean {statistics.fmean(sampler.probes) * 1e3:.3f} ms"
          + f" over {len(sampler.probes)}")

    if tracer is None:
        values = {
            "setup_s": statistics.median(setup_times),
            "run_s": statistics.median(round_times),
            "peak_rss_mb": peak_rss / 2**20,
        }
        wanted = spec["end_to_end"]
    else:
        traced_s = statistics.median(round_times[1:])
        values = {"trace.round_s": traced_s, "trace.overhead_s": traced_s - round_times[0]}
        for key in {k for s in traced_summaries for k in s}:
            values[key] = statistics.median(s.get(key, 0) for s in traced_summaries)
        wanted = spec["per_layer"]
        tracer.write_spans(RUNS / f"trace-{workload.name}-seed{args.seed}.jsonl",
                           {"workload": workload.name, "seed": args.seed,
                            "traced_rounds": len(traced_summaries)})
        for name in tracer.missing:
            print(f"trace: {name} not found; its metrics read 0")

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
                    for m in wanted},
    }
    line = json.dumps(result)
    # The result file keeps the unscaled wall times next to the scaled figures.
    raw = {"run_wall_s": statistics.median(round_walls),
           "setup_wall_s": statistics.median(setup_walls),
           "probe_mean_ms": statistics.fmean(sampler.probes) * 1e3}
    (RUNS / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "raw": raw}) + "\n", encoding="utf-8")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
