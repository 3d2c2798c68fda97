"""Seeded end-to-end benchmark of the spellvar CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mine --seed 1 --seconds 60 --trace 0

The run generates its inputs from the seed under ``.perfbench_work/``,
then starts one worker process per iteration until ``--seconds`` have
passed (at least three, after one untimed warm-up). Each worker imports
spellvar from the checkout's ``src``, reports ready, and runs the
workload's CLI commands, driven by argv with relative paths. The parent
times set-up (process start to ready), checks every output against the
planted truth, and prints human-readable lines followed by one JSON
result line.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json (medians over
iterations). ``--trace 1`` alternates untraced and traced workers and
reports the per-layer metrics (medians over traced iterations) plus the
tracing overhead. Workloads:

- ``mine``: count-freq, build-vocab and extract over a corpus and a
  definitions dump. extract and vocab work; embeddings and evaluate idle.
- ``score``: evaluate on a plain table whose lexicon covers most of the
  vocabulary, then report. Ranking works; the report is written, read back.

Two more workloads were tried and left out, because on a shared 2-vCPU
virtual machine their run medians moved between runs by about a quarter
or more (quartile spread over ten seeds), as wide as the largest bound a
gated metric may have: ``load`` (evaluate --format headered on a large
table with a small lexicon) and ``neighbors`` (the library's per-query
path, ``rank_formal_neighbors``, in a closed loop). The traced run still
times that path on the ``score`` table, outside the timed part.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import gen
from tracing import MOVES

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("mine", "score")
MIN_ITERATIONS = 3
MAX_ITERATIONS = 40
START_LIMIT_S = 120  # no worker starts later than this into the run
WORKER_LIMIT_S = 50
K = 20
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

MINE_ARTIFACTS = {
    "count-freq": ("freq.tsv",),
    "build-vocab": ("lexicon.txt",),
    "extract": ("pairs.tsv", "pairs.tsv.stats", "pairs.tsv.stats.json"),
}
EVAL_ARTIFACTS = {"evaluate": ("eval.report", "eval.report.tsv"), "report": ()}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def environment() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def make_inputs(workload, seed, inputs):
    """Generate the inputs; return (truth, worker plan, per-op artifacts)."""
    if workload == "mine":
        truth = gen.mine_inputs(seed, inputs)
        commands = [
            ["count-freq", "--corpus", "inputs/corpus.txt", "--freq", "out/freq.tsv"],
            ["build-vocab", "--corpus", "inputs/corpus.txt", "--lexicon", "out/lexicon.txt"],
            ["extract", "--defs", "inputs/defs.tsv", "--freq", "out/freq.tsv",
             "--pairs", "out/pairs.tsv", "--min-freq", str(gen.MIN_FREQ)],
        ]
        return truth, {"commands": commands}, MINE_ARTIFACTS
    truth = gen.table_inputs(seed, inputs)
    files = {"embeddings": "inputs/vectors.txt", "format": "plain", "lexicon": "inputs/lexicon.txt"}
    commands = [
        ["evaluate", "--pairs", "inputs/pairs.tsv", "--lexicon", "inputs/lexicon.txt",
         "--embeddings", "inputs/vectors.txt", "--report", "out/eval.report"],
        ["report", "--report", "out/eval.report.tsv"],
    ]
    oracle = dict(files, pairs=truth["oracle_pairs"], report_tsv="out/eval.report.tsv", k=K)
    return truth, {"commands": commands, "oracle": oracle}, EVAL_ARTIFACTS


def run_worker(work, plan, env):
    """Start one worker; return (setup_s, result or None)."""
    out = os.path.join(work, "out")
    shutil.rmtree(out, ignore_errors=True)
    os.mkdir(out)
    plan_path = os.path.join(work, "plan.json")
    with open(plan_path, "w", encoding="utf-8") as f:
        json.dump(plan, f)
    with open(os.path.join(work, "worker.log"), "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), "plan.json"],
            cwd=work, env=env, stdout=subprocess.PIPE, stderr=log, text=True,
        )
        try:
            ready = proc.stdout.readline()
            setup = time.perf_counter() - start
            rest = proc.stdout.read()
        except BaseException:
            proc.kill()
            raise
        finally:
            proc.stdout.close()
            proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0 or not rest.strip():
        return setup, None
    return setup, json.loads(rest.strip().splitlines()[-1])


def read(path) -> bytes | None:
    try:
        with open(path, "rb") as f:
            return f.read()
    except OSError:
        return None


def check_cli(workload, work, truth, result, artifacts, reference):
    """(attempted, failed, problems) for one CLI iteration.

    An operation fails when its command exits nonzero, when an output
    differs from the planted truth, or when an artifact's digest differs
    from the first iteration's.
    """
    problems = []
    failed = 0
    oracle_failures = [c for c in result["checks"] if not c["ok"]]
    for op in result["ops"]:
        name = op["name"]
        bad = [] if op["ok"] else [f"{name} exited nonzero"]
        for artifact in artifacts.get(name, ()):
            data = read(os.path.join(work, "out", artifact))
            digest = None if data is None else hashlib.sha256(data).hexdigest()
            if workload == "mine" and data != truth["expected"][artifact].encode("utf-8"):
                bad.append(f"{artifact} differs from the planted truth")
            reference.setdefault(artifact, digest)
            if digest != reference[artifact]:
                bad.append(f"{artifact} digest changed between iterations")
        if name == "evaluate":
            bad += check_statuses(work, truth)
            bad += [f"{c['name']}: {c['detail']}" for c in oracle_failures]
        if name == "report":
            m = re.search(r"pairs: (\d+)\s+scored: (\d+)", op["stdout"])
            evaluated = truth["pairs"] - truth["removed_by_lexicon"]
            if not m or (int(m[1]), int(m[2])) != (evaluated, truth["statuses"]["scored"]):
                bad.append("report summary disagrees with the planted statuses")
        failed += bool(bad)
        problems += bad
    return len(result["ops"]), failed, problems


def check_statuses(work, truth):
    data = read(os.path.join(work, "out", "eval.report.tsv"))
    if data is None:
        return ["eval.report.tsv missing"]
    counts = dict.fromkeys(truth["statuses"], 0)
    for line in data.decode("utf-8", "replace").splitlines():
        fields = line.split("\t")
        status = fields[2] if len(fields) == 5 else "malformed"
        counts[status] = counts.get(status, 0) + 1
    if counts != truth["statuses"]:
        return [f"status counts {counts} != planted {truth['statuses']}"]
    return []


def end_to_end(workload, truth, setups, results):
    med = statistics.median
    walls = [r["wall_s"] for r in results]
    m = {
        "setup_s": (med(setups), "s"),
        "wall_s": (med(walls), "s"),
        "peak_rss_mb": (med(r["peak_rss_kb"] for r in results) / 1024, "MB"),
    }
    extra = {}
    op_time = lambda name: med(op["s"] for r in results for op in r["ops"] if op["name"] == name)
    if workload == "mine":
        extract_s = op_time("extract")
        extra["count_freq_s"] = (op_time("count-freq"), "s")
        extra["build_vocab_s"] = (op_time("build-vocab"), "s")
        extra["extract_s"] = (extract_s, "s")
        extra["defs_per_s"] = (truth["definitions"] / extract_s, "1/s")
    else:
        evaluate_s = op_time("evaluate")
        extra["evaluate_s"] = (evaluate_s, "s")
        extra["pairs_per_s"] = (truth["pairs"] / evaluate_s, "1/s")
    return m, extra


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "spellvar", "__init__.py")):
        fail(f"no spellvar package under {src}; run from the root of a checkout")
    try:
        with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
            spec = json.load(f)
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")

    work = os.path.join(root, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    inputs = os.path.join(work, "inputs")
    os.makedirs(inputs)
    try:
        return measure(args, spec, src, work, inputs)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass


def measure(args, spec, src, work, inputs) -> int:
    began = time.perf_counter()
    truth, plan, artifacts = make_inputs(args.workload, args.seed, inputs)
    inputs_info = gen.describe_inputs(inputs)
    generate_s = time.perf_counter() - began
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    plan.update(workload=args.workload, time_limit=WORKER_LIMIT_S)

    setups, results, traced_flags = [], [], []
    attempted = failed = 0
    problems: list[str] = []
    reference: dict = {}
    minimum = 1 + MIN_ITERATIONS + args.trace
    start = time.perf_counter()
    durations: list[float] = []
    i = 0
    while i < MAX_ITERATIONS and time.perf_counter() - began < START_LIMIT_S:
        # Start another iteration only if it should end within --seconds.
        if i >= minimum and time.perf_counter() - start + statistics.median(durations) > args.seconds:
            break
        begun = time.perf_counter()
        # Iteration 0 is a warm-up: checked, not timed. It compiles the
        # package's bytecode in a fresh checkout and runs the oracle checks.
        warmup = i == 0
        traced = bool(args.trace and i % 2 == 0 and not warmup)
        plan.update(trace=traced)
        plan["oracle"] = plan.get("oracle") if i == 0 else None
        setup, result = run_worker(work, plan, env)
        durations.append(time.perf_counter() - begun)
        i += 1
        if result is None:
            attempted += len(plan["commands"])
            failed += len(plan["commands"])
            problems.append(f"iteration {i}: worker failed (see its log)")
            continue
        if not result.pop("spellvar_file", src).startswith(src):
            fail("the worker imported spellvar from outside this checkout")
        a, f, p = check_cli(args.workload, work, truth, result, artifacts, reference)
        if traced and args.workload != "mine":
            if result["layers"]["evaluate.self_excluded"] != truth["self_excluded"]:
                f += 1
                p.append(f"traced self-excluded count {result['layers']['evaluate.self_excluded']} "
                         f"!= planted {truth['self_excluded']}")
        attempted += a
        failed += f
        problems += [f"iteration {i}: {x}" for x in p]
        if warmup:
            continue
        setups.append(setup)
        results.append(result)
        traced_flags.append(traced)

    if not results:
        with open(os.path.join(work, "worker.log"), encoding="utf-8", errors="replace") as log:
            sys.stderr.write(log.read()[-4000:])
        fail("no iteration completed")

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} iterations={len(results)} generate_s={generate_s:.3f}")
    print("environment " + json.dumps(environment(), sort_keys=True))
    print("inputs " + json.dumps(inputs_info, sort_keys=True))
    print("artifacts " + json.dumps(reference, sort_keys=True))
    print("per-iteration setup_s " + " ".join(f"{x:.4f}" for x in setups))
    print("per-iteration wall_s " + " ".join(f"{r['wall_s']:.4f}" + "*" * t for r, t in zip(results, traced_flags)))
    for problem in problems[:50]:
        print("FAILED " + problem)
    print(f"fail_ratio = {failed / attempted:.6g} ({failed}/{attempted} operations)")

    if args.trace:
        plain = [r for r, t in zip(results, traced_flags) if not t]
        traced = [r for r, t in zip(results, traced_flags) if t]
        if not plain or not traced:
            fail("the traced run needs both untraced and traced iterations")
        layers = {key: statistics.median(r["layers"][key] for r in traced) for key in MOVES}
        layers["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                      - statistics.median(r["wall_s"] for r in plain))
        wanted = spec["per_layer"]
        values = layers
        units = {m["name"]: m["unit"] for m in wanted}
        for name in MOVES:
            print(f"  {name:36s} {layers[name]:14.6g} {units.get(name, ''):8s} moves: {MOVES[name]}")
    else:
        e2e, extra = end_to_end(args.workload, truth, setups, results)
        wanted = spec["end_to_end"]
        values = {name: value for name, (value, _) in e2e.items()}
        for name, (value, unit) in list(e2e.items()) + list(extra.items()):
            print(f"  {name:20s} {value:14.6g} {unit}")

    metrics = {}
    for metric in wanted:
        if metric["name"] not in values:
            fail(f"BENCHMARK.json names {metric['name']}, which this benchmark does not measure")
        metrics[metric["name"]] = {"value": values[metric["name"]], "unit": metric["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
