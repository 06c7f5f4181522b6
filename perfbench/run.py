"""Layered benchmark of the lspectra CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload's ops are generated from the
seed (see workloads.py), run through ``lspectra.cli.main`` in fresh worker
interpreters, one op at a time, and every output is checked.  The last line
of stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 measures the end-to-end metrics: the workload's minimum number of
passes, then more while one more still ends within S seconds, each pass in
a fresh interpreter.
--trace 1 runs pass 0 traced, then again untraced for the tracing overhead,
and reports the per-layer metrics (see layers.py); it ignores --seconds.

Every run ends within RUN_LIMIT_S: a pass still running then is cut off,
and its unfinished ops count as failed.

See perfbench/README.md for the workloads, the metrics and their units.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
# Per-op cap: about twice the slowest op at the seed commit.
OP_TIMEOUT_S = 100.0
# The whole run ends within this many seconds: a pass still running then is
# cut off and its unfinished ops count as failed.
RUN_LIMIT_S = 170.0
# Set-up probes per run, at least; they are spread over the minimum passes.
SETUP_PROBES = 15
# Seconds one speed sample (worker._speed_work) takes at the reference speed.
REF_SAMPLE_S = 0.0005
# An op with at least this many speed samples is scaled by its own; shorter
# ops of a pass share the samples they took between them.
OWN_SAMPLES = 10
DIGEST_HEX = 12

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("op_p50_ms", "ms"), ("op_tail_ms", "ms"),
              ("peak_rss_mb", "MB"))


class BenchError(RuntimeError):
    pass


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:DIGEST_HEX]


def expected_digest(op, table):
    if "cell" in op:
        cells = table["cells"][op["key"]]
        return cells[DIGEST_HEX * op["cell"]:DIGEST_HEX * (op["cell"] + 1)]
    return table["ops"][op["key"]]


def check(op, res, table):
    """None if the op's output is right, else why not."""
    if res["error"]:
        return res["error"].strip().splitlines()[-1]
    if res["rc"] != 0:
        return f"exit code {res['rc']}: {res['stderr'].strip()[:200]}"
    out = res["stdout"]
    try:
        if op["key"].startswith("verify"):
            failing = [item["name"] for item in json.loads(out) if item["passed"] is not True]
            if failing:
                return "FAIL " + ", ".join(failing)
        if "beta" in op and json.loads(out)["value"] != op["beta"]:
            return f"beta {json.loads(out)['value']}, expected {op['beta']} by construction"
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output ({exc})"
    if digest(out) != expected_digest(op, table):
        return "stdout differs from the seed-commit output"
    return None


def run_worker(ops, workdir, tag, deadline, trace=False):
    """Per-op results of one pass in a fresh worker, and the layer summary if traced.

    The worker gets until the earlier of the run's deadline and the time every
    op would take at the cap.  If it is cut off or dies, every op it did not
    finish counts as failed with the cap as its latency.
    """
    job, result = workdir / f"{tag}-ops.json", workdir / f"{tag}-result.jsonl"
    job.write_text(json.dumps({"ops": [op["argv"] for op in ops], "timeout_s": OP_TIMEOUT_S}))
    cmd = [sys.executable, str(BENCH / "worker.py"), str(job), str(result)]
    if trace:
        cmd += ["--trace", str(workdir / f"{tag}-spans.tsv.gz")]
    budget = min(len(ops) * (OP_TIMEOUT_S + 1.0) + 10.0, deadline - time.perf_counter())
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(budget, 1.0))
        cut = None if proc.returncode == 0 else (
            f"worker exited with code {proc.returncode}: {proc.stderr.strip()[-300:]}")
    except subprocess.TimeoutExpired:
        cut = f"pass cut off after {budget:.0f} s, at the run's time limit"
    done = []
    for line in result.read_text().splitlines() if result.exists() else []:
        try:
            done.append(json.loads(line))
        except ValueError:  # the line a killed worker was writing
            break
    end = done.pop() if done and done[-1].get("end") else {}
    for _ in ops[len(done):]:
        done.append({"rc": None, "ms": OP_TIMEOUT_S * 1000.0, "speed_s": 0.0, "speed_n": 0,
                     "stdout": "", "stderr": "", "error": cut or "no result", "unfinished": True})
    if trace and "layers" not in end:
        raise BenchError(f"traced worker left no layer summary ({cut})")
    return {"ops": done, "wall_s": sum(r["ms"] for r in done) / 1000.0,
            "layers": end.get("layers"), "cut": cut}


def setup_probe():
    """Seconds a fresh interpreter takes to import lspectra.cli and build its parser,
    with the speed samples taken meanwhile."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--probe"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
    return json.loads(proc.stdout)


def speed_factor(items):
    """Reference speed over the speed the items' samples show (1 without samples)."""
    n, spent = sum(i["speed_n"] for i in items), sum(i["speed_s"] for i in items)
    return REF_SAMPLE_S * n / spent if n else 1.0


def scaled_ms(res):
    """The pass's op latencies in ms at the reference machine speed."""
    short = [r for r in res["ops"] if r["speed_n"] < OWN_SAMPLES]
    pooled = speed_factor(short or res["ops"])
    return [r["ms"] * (speed_factor([r]) if r["speed_n"] >= OWN_SAMPLES else pooled)
            for r in res["ops"]]


def nearest_rank(sorted_values, pct):
    return sorted_values[max(0, math.ceil(pct / 100 * len(sorted_values)) - 1)]


def grade(passes, table):
    """(attempted, failures) over every op of every pass."""
    failures = []
    attempted = 0
    for ops, res in passes:
        for op, r in zip(ops, res["ops"]):
            attempted += 1
            why = check(op, r, table)
            if why:
                failures.append((op, why))
    return attempted, failures


def timed_run(wl, seconds, table, workdir, deadline):
    from workloads import Exhausted

    setup_probe()  # also writes the bytecode cache, which users pay once
    probes_per_pass = math.ceil(SETUP_PROBES / wl.min_passes)
    probes = []
    passes = []
    start = time.perf_counter()
    # After the minimum, start a pass only if one more as long as the last fits.
    # Set-up probes run between passes, so they sample the same machine state.
    while (len(passes) < wl.min_passes
           or time.perf_counter() - start + passes[-1][1]["wall_s"] < seconds):
        try:
            ops = wl.make_pass(len(passes))
        except Exhausted:
            break
        probes += [setup_probe() for _ in range(probes_per_pass)]
        res = run_worker(ops, workdir, f"pass{len(passes)}", deadline)
        res["scaled_ms"] = scaled_ms(res)
        passes.append((ops, res))
        if res["cut"]:
            break
    n_min = sum(len(ops) for ops, _ in passes[:wl.min_passes])
    tail_pct = math.floor(100 * (n_min - 10) / n_min)

    def summary(key, setup_factor):
        latencies = sorted(ms for _, res in passes for ms in res[key])
        return {
            "setup_s": statistics.median(p["setup_s"] for p in probes) * setup_factor,
            "wall_s": statistics.median(sum(res[key]) / 1000.0 for _, res in passes),
            "op_p50_ms": statistics.median(latencies),
            "op_tail_ms": nearest_rank(latencies, tail_pct),
        }

    for _, res in passes:
        res["raw_ms"] = [r["ms"] for r in res["ops"]]
    values = summary("scaled_ms", speed_factor(probes))
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    raw = summary("raw_ms", 1.0)
    attempted, failures = grade(passes, table)
    n_ops = sum(len(res["ops"]) for _, res in passes)
    walls = " ".join(f"{res['wall_s']:.3f}" for _, res in passes)
    print(f"passes {len(passes)}; raw wall_s {walls}")
    print(f"speed factors: set-up {speed_factor(probes):.3f}, passes "
          + " ".join(f"{speed_factor(res['ops']):.3f}" for _, res in passes))
    print("raw, not scaled: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
    print(f"op_tail_ms is p{tail_pct} of {n_ops} ops "
          f"({n_ops - math.ceil(tail_pct / 100 * n_ops)} beyond it)")
    return values, dict(END_TO_END), attempted, failures


def print_layer_table(layers, wall_s):
    from layers import LAYERS, group_names

    print(f"{'layer metric':34} {'calls':>9} {'self_s':>10} {'share':>7}")
    for group in group_names():
        calls, self_s = layers[f"{group}.calls"], layers[f"{group}.self_s"]
        print(f"{group:34} {calls:9d} {self_s:10.4f} {self_s / wall_s:7.1%}")
    for layer in LAYERS:
        total = sum(layers[f"{g}.self_s"] for g in group_names() if g.split(".")[0] == layer)
        print(f"{'total ' + layer:34} {'':9} {total:10.4f} {total / wall_s:7.1%}")
    for key, value in layers.items():
        if not key.endswith((".calls", ".self_s")):
            print(f"{key:34} {value}")


def traced_run(wl, table, workdir, deadline):
    from layers import PER_LAYER

    ops = wl.make_pass(0)
    traced = run_worker(ops, workdir, "traced", deadline, trace=True)
    # The untraced rerun only gives the overhead, so it gets the time left: ops
    # it cannot finish by the deadline are left out of the overhead and the grade.
    plain = run_worker(ops, workdir, "untraced", deadline)
    both = [(op, t, u) for op, t, u in zip(ops, traced["ops"], plain["ops"])
            if not u.get("unfinished")]
    if not both:
        raise BenchError("no op could be rerun untraced before the run's time limit")
    traced_s = sum(t["ms"] for _, t, _ in both) / 1000.0
    plain_s = sum(u["ms"] for _, _, u in both) / 1000.0
    layers = dict(traced["layers"])
    layers["trace.overhead"] = traced_s / plain_s
    print(f"traced wall_s {traced['wall_s']:.4f}, {len(ops)} ops; shares are of it")
    print(f"trace.overhead over the {len(both)} ops rerun untraced: "
          f"{traced_s:.4f} s traced / {plain_s:.4f} s untraced")
    print_layer_table(layers, traced["wall_s"])
    rerun = {"ops": [u for _, _, u in both]}
    attempted, failures = grade([(ops, traced), ([op for op, _, _ in both], rerun)], table)
    return layers, dict(PER_LAYER), attempted, failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + RUN_LIMIT_S
    if not (ROOT / "src" / "lspectra" / "cli.py").is_file():
        print(f"error: no lspectra sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    table = json.loads((BENCH / "digests.json").read_text())
    workdir = WORK / f"{args.workload}-{args.seed}-{'trace' if args.trace else 'timed'}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    wl = WORKLOADS[args.workload](args.seed, workdir)
    if args.trace:
        values, units, attempted, failures = traced_run(wl, table, workdir, deadline)
    else:
        values, units, attempted, failures = timed_run(wl, args.seconds, table, workdir, deadline)
    print(f"workload {args.workload} seed {args.seed}: {attempted} ops attempted, "
          f"{len(failures)} failed, fail_ratio {len(failures) / attempted:.4f}")
    for op, why in failures[:20]:
        print(f"FAILED {' '.join(op['argv'])}: {why}")
    if not args.trace:
        for name, unit in units.items():
            print(f"{name} {values[name]:.6g} {unit}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
