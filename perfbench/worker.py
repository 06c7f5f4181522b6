"""Runs one pass of ops through ``lspectra.cli.main`` in a fresh interpreter.

    python3 perfbench/worker.py OPS_JSON RESULT_JSONL [--trace SPANS_TSV_GZ]
    python3 perfbench/worker.py --probe

OPS_JSON holds {"ops": [argv, ...], "timeout_s": cap}.  Ops run one after
another on this thread (a closed loop with one caller).  Each op has a
per-op timeout from SIGALRM; an op that hits it is recorded as failed with
the cap as its latency.  RESULT_JSONL receives one line per op as soon as it
ends (exit code, latency, speed samples, stdout and error), so a pass that
is cut short still leaves every finished op behind, and an end line once
all ops ran.  With --trace the layers are wrapped first (see layers.py),
no speed samples are taken, and the end line holds the per-layer summary.

Speed samples measure how fast the machine runs while the program does:
every SAMPLE_EVERY_S of this process's CPU time, SIGPROF times one fixed
piece of pure-Python work that does not touch the program.  An op's latency
excludes the time its samples took.  run.py scales times by the samples
(see README.md, "Machine speed").

--probe prints, as JSON, the seconds it takes to import lspectra.cli and
build the argument parser (the set-up every CLI invocation pays) and the
speed samples taken meanwhile.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import signal
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


# CPU seconds between two speed samples; one sample takes about 0.5 ms.
SAMPLE_EVERY_S = 0.02


class OpTimeout(BaseException):
    """Raised by SIGALRM; a BaseException so no handler in the program swallows it."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def _speed_work():
    # Integer rows whose entries outgrow a machine word, small tuples as dict
    # keys and short-lived lists: the kinds of work the program does.
    row = list(range(1, 25))
    table = {}
    for i in range(75):
        row = [a + 3 * b for a, b in zip(row, row[1:] + row[:1])]
        for j in range(0, 24, 3):
            key = (i % 7, j)
            table[key] = table.get(key, 0) + row[j] % 1009
    return sum(table.values())


class SpeedSampler:
    """Times ``_speed_work`` every SAMPLE_EVERY_S of CPU time, from SIGPROF."""

    def __init__(self):
        self.total = 0.0  # seconds spent in samples
        self.count = 0

    def _on_prof(self, signum, frame):
        start = time.perf_counter()
        _speed_work()
        self.total += time.perf_counter() - start
        self.count += 1

    def start(self):
        signal.signal(signal.SIGPROF, self._on_prof)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0)


class NoSampler:
    total, count = 0.0, 0

    def stop(self):
        pass


def probe():
    sampler = SpeedSampler()
    sampler.start()
    start = time.perf_counter()
    import lspectra.cli

    lspectra.cli.build_parser()
    elapsed = time.perf_counter() - start
    sampler.stop()
    print(json.dumps({"setup_s": elapsed - sampler.total, "speed_s": sampler.total,
                      "speed_n": sampler.count}))


def run_op(cli, argv, timeout_s, sampler):
    # Each CLI call normally gets a fresh process: start every op on a clean
    # heap, outside the timed region, so no op pays for the last one's garbage.
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, None
    spent, count = sampler.total, sampler.count
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, timeout_s)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        error = "timeout"
    except Exception:  # the op fails; the pass goes on
        error = traceback.format_exc(limit=-3)
    elapsed = time.perf_counter() - start
    spent, count = sampler.total - spent, sampler.count - count
    ms = timeout_s * 1000.0 if error == "timeout" else (elapsed - spent) * 1000.0
    return {"rc": rc, "ms": ms, "speed_s": spent, "speed_n": count, "stdout": out.getvalue(),
            "stderr": err.getvalue(), "error": error}


def main(argv):
    if argv == ["--probe"]:
        probe()
        return 0
    ops_path, result_path = argv[0], argv[1]
    spans_path = argv[3] if len(argv) == 4 and argv[2] == "--trace" else None
    with open(ops_path, encoding="utf-8") as fh:
        job = json.load(fh)
    import lspectra.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"lspectra imported from {cli.__file__}, not from the checkout")
    tracer, sampler = None, NoSampler()
    if spans_path:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
    else:
        sampler = SpeedSampler()
        sampler.start()
    signal.signal(signal.SIGALRM, _on_alarm)
    with open(result_path, "w", encoding="utf-8") as fh:
        for i, op_argv in enumerate(job["ops"]):
            if tracer:
                tracer.op = i
            fh.write(json.dumps(run_op(cli, op_argv, job["timeout_s"], sampler)) + "\n")
            fh.flush()
        sampler.stop()
        end = {"end": True}
        if tracer:
            end["layers"] = tracer.summary()
            tracer.write(spans_path)
        fh.write(json.dumps(end) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
