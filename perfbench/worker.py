"""One iteration of a workload, in a fresh process.

Usage: ``python3 worker.py PLAN.json``, from the run directory, with the
checkout's ``src`` on PYTHONPATH. The worker imports spellvar, prints
``ready``, runs the workload's CLI commands (the timed part), then runs
its checks and prints one JSON result line. Everything after
``ready`` that is not the timed part is kept out of the timings, and the
peak RSS is read before the checks load anything.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import signal
import sys
import time
import traceback

ORACLE_SCORE_TOLERANCE = 1e-6  # the report prints similarities to 6 decimals


def run_commands(cli, commands):
    ops, windows = [], []
    for argv in commands:
        out = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
        except (Exception, SystemExit):
            traceback.print_exc()
            code = None
        end = time.perf_counter()
        windows.append((start, end))
        ops.append({"name": argv[0], "s": end - start, "ok": code == 0, "stdout": out.getvalue()})
    return ops, windows


def _report_rows(path):
    rows = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            informal, formal, status, rank, neighbors = line.rstrip("\n").split("\t")
            pairs = [item.rpartition(":") for item in neighbors.split(",")] if neighbors else []
            rows[(informal, formal)] = (status, rank, [(t, float(s)) for t, _, s in pairs])
    return rows


def check_report_oracle(oracle):
    """Rank and top-k of sampled scored pairs against brute_force_rank."""
    from spellvar import embeddings, evaluate, vocab

    table = embeddings.normalize(embeddings.load_embeddings(oracle["embeddings"], format=oracle["format"]))
    lexicon = vocab.load_lexicon(oracle["lexicon"])
    rows = _report_rows(oracle["report_tsv"])
    checks = []
    for informal, formal in oracle["pairs"]:
        ranking = evaluate.brute_force_rank(table, informal, lexicon)
        tokens = [t for t, _ in ranking]
        status, rank, top = rows.get((informal, formal), (None, None, []))
        ok = (
            status == "scored"
            and formal in tokens
            and rank == str(tokens.index(formal) + 1)
            and [t for t, _ in top] == tokens[: oracle["k"]]
            and all(abs(a - b) <= ORACLE_SCORE_TOLERANCE for (_, a), (_, b) in zip(top, ranking))
        )
        checks.append({"name": f"oracle {informal}->{formal}", "ok": ok,
                       "detail": f"report rank {rank}, oracle rank "
                                 f"{tokens.index(formal) + 1 if formal in tokens else None}"})
    return checks


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as f:
        plan = json.load(f)
    signal.alarm(plan["time_limit"])  # a hung worker dies rather than hanging the run

    import spellvar
    import spellvar.cli

    tracer = None
    if plan["trace"]:
        from tracing import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()

    result = {"checks": [], "spellvar_file": spellvar.__file__}
    print("ready", flush=True)

    begin = time.perf_counter()
    result["ops"], windows = run_commands(spellvar.cli, plan["commands"])
    result["wall_s"] = time.perf_counter() - begin
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if tracer is not None:
        tracer.uninstall()
        result["layers"] = layer_metrics(tracer, windows, result["peak_rss_kb"])

    if plan.get("oracle"):
        result["checks"] += check_report_oracle(plan["oracle"])

    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
