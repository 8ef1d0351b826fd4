#!/usr/bin/env python3
"""avgalg benchmark: four seeded workloads checked against exact references.

    python3 perfbench/run.py --workload findim_q --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (``src/avgalg`` and ``corpus/`` next
to ``perfbench/``); nothing needs installing.  One client drives the program
in a closed loop: the next operation starts when the previous one returns.
Timings are scaled to a reference machine speed (see ``Speed``).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` replays a fixed
prefix of the seeded schedule alternately plain and traced and prints the
per-layer metrics.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
describe the run and every failing input.  See ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import re
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5      # set-up is measured this many times per run; median kept
PART_PROBES = 3       # likewise for the interpreter and import-time parts
OP_TIMEOUT_S = 60     # an in-process operation running longer is a failure
TRACE_OPS = {"decide": 300}  # traced prefix length; default is one whole round
WINDOW_S = 0.25        # machine speed is sampled at least this often


def die(msg: str):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def reference_work():
    """A fixed stdlib computation (Fraction arithmetic, dict and tuple work,
    calls): the yardstick for in-process timings."""
    acc = Fraction(0)
    table = {}
    for i in range(1, 200):
        acc += Fraction(i, i + 2) * Fraction(3, 7)
        key = (i % 13, i % 7)
        table[key] = table.get(key, 0) + i * i
    return acc, sorted(table.items())


def _time_reference_work() -> float:
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


def _time_bare_interpreter() -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-S", "-c", "pass"], check=True)
    return time.perf_counter() - t0


class Speed:
    """Converts wall time into time at reference speed.

    On a shared host CPU speed drifts by a fifth or more over seconds to
    minutes, so every timing is multiplied by nominal / yardstick, the
    yardstick being timed just before and just after it (best of three
    each, mean of the two).  In-process work is measured against
    ``reference_work``; work in child processes against a bare interpreter
    start, which also tracks the cost of creating processes.  Neither
    yardstick touches avgalg, so a change to the program moves the scaled
    time and not the scale.
    """

    def __init__(self, in_process: bool):
        self._time, self.nominal = ((_time_reference_work, 0.002) if in_process
                                    else (_time_bare_interpreter, 0.015))
        self.samples = []
        self.last = self.sample()

    def sample(self) -> float:
        best = min(self._time() for _ in range(3))
        self.samples.append(best)
        return best

    def close(self) -> float:
        """Factor for the work done since the previous sample."""
        new = self.sample()
        factor = self.nominal / ((self.last + new) / 2)
        self.last = new
        return factor

    def scaled(self, measure) -> float:
        """measure() returns wall seconds; returns them at reference speed."""
        self.last = self.sample()
        raw = measure()
        return raw * self.close()

    def median_factor(self) -> float:
        return self.nominal / statistics.median(self.samples)


def load_program():
    """Import avgalg from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "avgalg" / "__init__.py").is_file() or \
            not (ROOT / "corpus" / "manifest.json").is_file():
        die(f"no avgalg source tree at {ROOT} (need src/avgalg and corpus/)")
    sys.path.insert(0, str(src))
    import avgalg
    import avgalg.cli  # noqa: F401  (imports every layer)
    if Path(avgalg.__file__).resolve().parent != (src / "avgalg").resolve():
        die(f"imported avgalg from {avgalg.__file__}, not from {src}")
    return avgalg


def child_env() -> dict:
    """Children import avgalg from src/ with bytecode caching on, as an
    installed ``avg`` runs."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def time_until_ready(cmd) -> float:
    """Seconds from spawning cmd until it prints its 'ready' line."""
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE) as p:
        line = p.stdout.readline()
        elapsed = time.perf_counter() - t0
        p.stdout.read()
    if p.returncode != 0 or line.strip() != b"ready":
        die(f"set-up probe {cmd} failed (exit {p.returncode})")
    return elapsed


def measure_setup(speed: Speed, workload: str, seed: int) -> float:
    """Median seconds from process start until the first operation can run."""
    if workload == "cli":
        cmd = [sys.executable, "-c", "import avgalg.cli; print('ready', flush=True)"]
    else:
        cmd = [sys.executable, str(HERE / "run.py"), "--probe", "--workload", workload,
               "--seed", str(seed)]
    time_until_ready(cmd)  # writes the bytecode caches
    return statistics.median(speed.scaled(lambda: time_until_ready(cmd))
                             for _ in range(SETUP_PROBES))


def setup_parts(speed: Speed) -> dict:
    """Interpreter start (with site; without it, the start is the process
    yardstick) and each module's own import time from -X importtime, in ms
    (medians)."""
    def wall(cmd):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=child_env(), check=True)
        return time.perf_counter() - t0

    parts = {
        "cli.interpreter_ms": 1e3 * statistics.median(
            speed.scaled(lambda: wall([sys.executable, "-c", "pass"]))
            for _ in range(PART_PROBES)),
    }
    samples = {}
    for _ in range(PART_PROBES):
        speed.last = speed.sample()
        err = subprocess.run([sys.executable, "-X", "importtime", "-c", "import avgalg.cli"],
                             cwd=ROOT, env=child_env(), capture_output=True, check=True,
                             text=True).stderr
        factor = speed.close()
        for m in re.finditer(r"import time:\s+(\d+) \|\s+\d+ \|\s+avgalg\.(\w+)$", err, re.M):
            samples.setdefault(m.group(2), []).append(int(m.group(1)) / 1e3 * factor)
    for mod, vals in samples.items():
        parts[f"{mod}.import_ms"] = statistics.median(vals)
    return parts


class OpTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpTimeout()


class Run:
    """Outcomes of every attempted operation, and its latencies.

    Outcomes are counted per input: ``attempted`` is the number of distinct
    inputs run and ``failed`` the number of them with at least one wrong
    answer, exception or timeout.  Every run of an input is checked, but how
    often an input repeats depends on the machine's speed; counting inputs
    makes both numbers a function of the seed alone, so two runs of the same
    code with the same seed report the same failures.

    Latencies wait in a window until the next speed sample, then are stored
    at reference speed."""

    def __init__(self, workload: str, seed: int, in_process: bool, speed: Speed):
        self.workload, self.seed, self.in_process = workload, seed, in_process
        self.speed = speed
        self.latencies = []  # seconds at reference speed, one per operation
        self.by_input = {}   # instance key -> its latencies at reference speed
        self.raw = []        # wall seconds, one per operation
        self.executions = 0  # operations run, repeats included
        self.outcome = {}    # instance key -> None (always right), "known" or "unexplained"
        self.failures = {}   # instance key -> record
        self._window = []
        self._window_start = time.perf_counter()

    def begin(self):
        """Start a window with a fresh speed sample."""
        self.flush()
        self.speed.last = self.speed.sample()
        self._window_start = time.perf_counter()

    def flush(self):
        if self._window:
            factor = self.speed.close()
            for key, lat in self._window:
                self.latencies.append(lat * factor)
                self.by_input.setdefault(key, []).append(lat * factor)
                self.raw.append(lat)
            self._window = []
        self._window_start = time.perf_counter()

    def execute(self, op, on_result=None) -> float:
        """Run one operation, check it, record the outcome; returns its wall latency."""
        if self.in_process:
            signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
        t0 = time.perf_counter()
        try:
            result = op.run()
            bad = None
        except (OpTimeout, subprocess.TimeoutExpired):
            bad = {"outcome": ("result", f"timeout after {OP_TIMEOUT_S} s")}
        except Exception as exc:  # a crash is a failure of this operation only
            bad = {"outcome": ("result", f"{type(exc).__name__}: {exc}")}
        finally:
            lat = time.perf_counter() - t0
            if self.in_process:
                signal.setitimer(signal.ITIMER_REAL, 0)
        if bad is None:
            if on_result is not None:
                on_result(result)
            bad = op.check(result)
        key = json.dumps(op.instance, sort_keys=True)
        self._window.append((key, lat))
        self.executions += 1
        self.outcome.setdefault(key, None)
        if bad:
            known = op.known is not None and set(bad) == set(op.known[0])
            if self.outcome[key] != "unexplained":
                self.outcome[key] = "known" if known else "unexplained"
            rec = self.failures.setdefault(key, {
                "workload": self.workload, "seed": self.seed, "instance": op.instance,
                "expected": {k: v[0] for k, v in bad.items()},
                "actual": {k: v[1] for k, v in bad.items()},
                "known_defect": op.known[1] if known else None, "count": 0})
            rec["count"] += 1
        if time.perf_counter() - self._window_start >= WINDOW_S:
            self.flush()
        return lat

    @property
    def attempted(self) -> int:
        return len(self.outcome)

    @property
    def failed(self) -> int:
        return sum(v is not None for v in self.outcome.values())

    @property
    def unexplained(self) -> int:
        return sum(v == "unexplained" for v in self.outcome.values())


def seeded_order(ops, seed: int, rnd: int):
    order = list(ops)
    random.Random(seed * 1_000_003 + rnd).shuffle(order)
    return order


def tail(lat):
    """The highest percentile with at least ten samples beyond it:
    (value, percentile, sample count)."""
    s = sorted(lat)
    n = len(s)
    i = max(n - 11, 0)
    return s[i], 100.0 * (i + 1) / n, n


def per_input(run: Run):
    """Each input's time: the median of its repeats in the run.  A burst of
    host load shorter than a speed-sampling window then moves no input."""
    return [statistics.median(v) for v in run.by_input.values()]


def end_to_end(run: Run, setup_s: float, workload: str) -> dict:
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    times = per_input(run)
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(times), "ms"),
        "latency_tail_ms": (1e3 * tail(times)[0], "ms"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer, n_ops: int, factor: float, parts: dict, gen_ms: float,
              overhead_pct: float) -> dict:
    """Self times are scaled by the run's median speed factor."""
    from tracer import layer_metric_names
    out = {}
    for name, unit in layer_metric_names():
        if name.endswith(".calls_per_op"):
            v = tracer.calls.get(name[:-len(".calls_per_op")], 0) / n_ops
        elif name.endswith(".self_ms_per_op"):
            v = 1e3 * factor * tracer.self_s.get(name[:-len(".self_ms_per_op")], 0.0) / n_ops
        elif name == "exactlin.rref.cells_per_op":
            v = tracer.rref_cells / n_ops
        elif name == "freeavg.result_terms_per_op":
            v = tracer.result_terms / n_ops
        elif name == "bench.input_gen_ms":
            v = gen_ms
        elif name == "bench.trace_overhead_pct":
            v = overhead_pct
        else:
            v = parts.get(name, 0.0)
        out[name] = (v, unit)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["findim_q", "findim_zn", "decide", "cli"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--probe", action="store_true",
                    help="set up the workload, print 'ready' and exit (times set-up)")
    args = ap.parse_args(argv)

    # one core for the client, the program's processes and the speed samples,
    # so that each sample measures the core the work ran on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    avg = load_program()
    import workloads
    make = workloads.WORKLOADS[args.workload]
    t0 = time.perf_counter()
    ops = make(avg, args.seed, ROOT)
    gen_ms = 1e3 * (time.perf_counter() - t0)
    if args.probe:
        print("ready", flush=True)
        return 0

    in_process = args.workload != "cli"
    signal.signal(signal.SIGALRM, _on_alarm)
    speed = Speed(in_process)
    run = Run(args.workload, args.seed, in_process, speed)
    process_speed = speed if not in_process else Speed(False)
    setup_s = measure_setup(process_speed, args.workload, args.seed)
    parts = setup_parts(process_speed)
    info = {"workload": args.workload, "seed": args.seed, "python": sys.version.split()[0],
            "nproc": os.cpu_count(), "round_ops": len(ops), "input_gen_ms": gen_ms,
            "setup_parts_ms": parts}

    # the inputs live for the whole run: keep them out of the collector's
    # full passes, which would otherwise scan them inside timed operations
    gc.collect()
    gc.freeze()
    if not args.trace:
        run.begin()
        t_end = time.perf_counter() + args.seconds
        rnd = 0
        while time.perf_counter() < t_end:
            for op in seeded_order(ops, args.seed, rnd):
                # the first round always completes, so every input is run
                if rnd and time.perf_counter() >= t_end:
                    break
                run.execute(op)
            rnd += 1
        run.flush()
        metrics = end_to_end(run, setup_s, args.workload)
        _, pct, n = tail(per_input(run))
        info.update(rounds=rnd, tail_percentile=round(pct, 3), tail_inputs=n,
                    wall_ops_per_s=len(run.raw) / sum(run.raw),
                    wall_latency_p50_ms=1e3 * statistics.median(run.raw))
    else:
        from tracer import Tracer
        sample = seeded_order(ops, args.seed, 0)[:TRACE_OPS.get(args.workload, len(ops))]
        if in_process:
            traced_sample = sample
        else:
            by_case = {op.instance["case"]: op
                       for op in workloads.cli(avg, args.seed, ROOT, traced=True)}
            traced_sample = [by_case[op.instance["case"]] for op in sample]
        tracer = Tracer()

        def collect(proc):
            tracer.merge(json.loads(proc.stderr.decode().splitlines()[-1]))

        def timed_pass(ops_, on_result=None) -> float:
            run.begin()
            done = len(run.latencies)
            for op in ops_:
                run.execute(op, on_result)
            run.flush()
            return sum(run.latencies[done:])

        plain_s = traced_s = 0.0
        passes = 0
        t_end = time.perf_counter() + args.seconds
        while passes == 0 or time.perf_counter() < t_end:
            plain_s += timed_pass(sample)
            if in_process:
                with tracer.installed():
                    traced_s += timed_pass(traced_sample)
            else:
                traced_s += timed_pass(traced_sample, collect)
            passes += 1
        overhead = 100.0 * (traced_s - plain_s) / plain_s
        metrics = per_layer(tracer, passes * len(sample), speed.median_factor(), parts,
                            gen_ms, overhead)
        info.update(traced_ops=len(sample), passes=passes, plain_s=plain_s, traced_s=traced_s)

    info["speed_factor_median"] = speed.median_factor()
    info["process_speed_factor_median"] = process_speed.median_factor()
    info["bare_interpreter_ms"] = 1e3 * statistics.median(process_speed.samples)
    info.update(executions=run.executions, attempted=run.attempted, failed=run.failed,
                fail_frac=run.failed / run.attempted, unexplained_failures=run.unexplained)
    print(json.dumps({"info": info}))
    for rec in run.failures.values():
        print(json.dumps({"failure": rec}))
    print(json.dumps({
        "correct": run.unexplained == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
