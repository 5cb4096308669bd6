"""Cold-process benchmark of primarydec.

Usage:
    python3 perfbench/run.py --workload cli|points|minass|cliff|all
                             [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; paths resolve against the repository that holds this file.

Every case runs in a fresh ``python3`` process, so the library's caches start
empty, and cases run one at a time from this single process: a closed loop
with one client. The workload's cases run in a fixed number of rounds, set by
``--seconds`` and the workload's nominal round time (see ``rounds_for``), so
every commit is measured on the same number of repeats. Each case is timed
around its call into the public API, after import and parse, in CPU time
scaled to the host's reference speed (``case.HostProbe``), and its answer is
checked against the corpus. A case's time in a run is the median of its
repeats (see ``_per_case``). A case that errs or runs past its deadline is
stopped, charged the deadline and counted as failed.

``--trace 0`` prints the end-to-end metrics:

- ``solve_s``: sum over cases of the case's solve time;
- ``case_geomean_s``: geometric mean of the per-case solve times;
- ``setup_s``: median over case processes of the scaled CPU time from process
  start to ready (interpreter, ``import primarydec``, parse of the input);
- ``peak_rss_mb``: the largest max-RSS of any case process.

``--trace 1`` alternates untraced and traced passes and prints the per-layer
metrics from tracer.py: calls and self time of each wrapped function, self time
of each layer, the counters, ``groebner.buchberger.repeat_frac`` and
``trace_overhead`` (traced ``solve_s`` over untraced ``solve_s``).

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; ``fail_frac`` is ``failed / attempted`` and is
printed on the line before it. The exit code is 0 only when every case gave
a correct answer in time.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import selectors
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import corpus
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

STOP_GRACE_S = 2.0

# Nominal wall time of one untraced round of each workload at the commit that
# added the benchmark, on the machine in README.md. A round took 4.5-6.5 s on
# cli, 6.2-9.8 s on points and 3.3-4.9 s on minass, as the host was fast or
# slow, so a run of ``--seconds`` lasts about that long or a little longer.
# The values fix the number of rounds (``rounds_for``): 4, 4 and 6 at 25 s.
ROUND_S = {"cli": 6.5, "points": 6.25, "minass": 4.5, "cliff": 95.0}
MAX_RUN_S = 120.0

END_TO_END = (
    ("solve_s", "s"),
    ("case_geomean_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# The traced run fails if a function records no calls on the workload whose
# reason names it.
EXERCISED = {
    "cli": (
        "cli.parse_script",
        "cli.render_json",
        "verify.validate_decomposition",
        "homology.canon_map",
        "homology.ext_module",
        "homology.free_resolution",
        "homology.equidim_hull",
        "homology.ass_prim_codim",
        "groebner.lift",
        "groebner.syzygies",
        "groebner.modulo_kernel",
        "groebner.eliminate",
        "decompose.primary_component",
    ),
    "points": (
        "decompose.primary_decomposition",
        "decompose.localize_module",
        "groebner.intersect",
        "groebner.saturate",
        "groebner.quotient",
    ),
    "minass": (
        "decompose.min_ass",
        "unifactor.univariate_factor",
        "groebner.buchberger",
    ),
    "cliff": ("decompose.min_ass",),
}


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def _read_until(proc, limit: float) -> tuple[bytes, bool]:
    """Collect the child's output until it closes; stop it at ``limit``.

    At ``limit`` the child gets SIGTERM, on which case.py prints what it has
    traced and exits; after a grace period it gets SIGKILL. Returns the output
    and whether the child had to be stopped.
    """
    fd = proc.stdout.fileno()
    chunks = []
    stopped = killed = False
    with selectors.DefaultSelector() as sel:
        sel.register(fd, selectors.EVENT_READ)
        while True:
            now = time.perf_counter()
            if not stopped and now >= limit:
                os.kill(proc.pid, signal.SIGTERM)
                stopped, limit = True, now + STOP_GRACE_S
            elif stopped and not killed and now >= limit:
                os.kill(proc.pid, signal.SIGKILL)
                killed = True
            if sel.select(None if killed else max(limit - now, 0)):
                data = os.read(fd, 1 << 16)
                if not data:
                    return b"".join(chunks), stopped
                chunks.append(data)


def run_case(case: corpus.Case, deadline: float, trace: bool) -> dict:
    """Run one case in a fresh process; return its timings, answer and status.

    The deadline covers the whole process, from spawn to exit.
    """
    spec = json.dumps(
        {"mode": case.mode, "script": case.script, "fixture": case.fixture, "trace": trace}
    )
    t_spawn = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-s", str(HERE / "case.py"), spec],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        cwd=ROOT,
        env=_child_env(),
    )
    try:
        out, timed_out = _read_until(proc, t_spawn + deadline)
    except BaseException:
        os.kill(proc.pid, signal.SIGKILL)
        raise
    finally:
        # Reap here rather than through Popen, to get the child's own rusage.
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
    text = out.decode(errors="replace").splitlines()
    lines = []
    for line in text:
        try:
            lines.append(json.loads(line))
        except json.JSONDecodeError:
            pass  # a traceback, or a line cut off by SIGKILL
    lines = [d for d in lines if isinstance(d, dict)]
    ready = next((d["ready"] for d in lines if "ready" in d), None)
    final = next((d for d in lines if "solve_s" in d), None)
    traced = next((d["trace"] for d in lines if "trace" in d), None)
    rec = {
        "case": case.name,
        "setup_s": ready,
        "rss_mb": usage.ru_maxrss / 1024,
        "timed_out": timed_out,
        "error": None,
        "answer": None,
        "trace": traced,
    }
    if final is not None and proc.returncode == 0:
        rec.update(
            solve_s=final["solve_s"], solve_cpu_s=final["solve_cpu_s"], answer=final["answer"]
        )
    else:
        rec["solve_s"] = rec["solve_cpu_s"] = deadline
        if timed_out:
            rec["error"] = f"deadline of {deadline:g} s hit"
        else:
            rec["error"] = (text or [f"exit code {proc.returncode}"])[-1]
    return rec


def check(case: corpus.Case, answer) -> str | None:
    """None when the answer is right, else what is wrong with it."""
    expect = case.expect
    if "json_file" in expect:
        want = (ROOT / expect["json_file"]).read_text()
        return None if answer == want else f"output differs from {expect['json_file']}"
    if expect.get("validation_ok"):
        reports = [obj["validation"] for obj in json.loads(answer) if "validation" in obj]
        if reports and all(r["ok"] for r in reports):
            return None
        return "validation did not pass"
    for key, want in expect.items():
        if answer.get(key) != want:
            return f"{key} differ from the expected ones"
    return None


def rounds_for(workload: str, seconds: float) -> int:
    """How many rounds a run of ``seconds`` makes: fixed for a workload.

    The count depends on ``seconds`` and ``ROUND_S`` only, never on how fast
    the code under test is, so two commits are measured on the same number of
    repeats of each case.
    """
    return max(1, round(seconds / ROUND_S[workload]))


def _run_rounds(cases, deadline: float, rounds: int, modes) -> list[dict]:
    """Run every case once per mode in each of ``rounds`` rounds.

    Rounds stop early only after ``MAX_RUN_S``, so that a run of a much slower
    commit still ends in bounded time.
    """
    records = []
    t_begin = time.perf_counter()
    for i in range(rounds):
        if i and time.perf_counter() - t_begin > MAX_RUN_S:
            print(f"stopped after {i} of {rounds} rounds: over {MAX_RUN_S:g} s", file=sys.stderr)
            break
        for traced in modes:
            for case in cases:
                rec = run_case(case, deadline, traced)
                rec["traced"] = traced
                if rec["error"] is None:
                    rec["error"] = check(case, rec["answer"])
                if rec["error"] is not None:
                    print(f"FAIL {case.name}: {rec['error']}", file=sys.stderr)
                records.append(rec)
    return records


def _per_case(records, key: str = "solve_s") -> dict[str, float]:
    """Each case's median ``key`` over its repeats, by case name."""
    by_case: dict[str, list[float]] = defaultdict(list)
    for rec in records:
        by_case[rec["case"]].append(rec[key])
    return {name: statistics.median(values) for name, values in by_case.items()}


def end_to_end(records) -> dict[str, float]:
    solve = list(_per_case(records).values())
    return {
        "solve_s": sum(solve),
        "case_geomean_s": math.exp(statistics.fmean(math.log(v) for v in solve)),
        "setup_s": statistics.median(r["setup_s"] for r in records if r["setup_s"] is not None),
        "peak_rss_mb": max(r["rss_mb"] for r in records),
    }


def per_layer(workload: str, records) -> dict[str, float]:
    plain = [r for r in records if not r["traced"]]
    traced = [r for r in records if r["traced"] and r["trace"] is not None]
    if not traced:
        raise RuntimeError("no traced case finished")
    # Each figure is its median over a case's traced repeats, summed over cases.
    reports: dict[str, list[dict]] = defaultdict(list)
    for rec in traced:
        reports[rec["case"]].append(rec["trace"])
    totals: dict[str, float] = defaultdict(int)
    for runs in reports.values():
        for key in runs[0]:
            totals[key] += statistics.median(run[key] for run in runs)
    metrics = {}
    for layer, fns in tracer.LAYERS.items():
        for fn in fns:
            for stat in ("calls", "self_s"):
                metrics[f"{layer}.{fn}.{stat}"] = totals[f"{layer}.{fn}.{stat}"]
        metrics[f"{layer}.self_s"] = sum(totals[f"{layer}.{fn}.self_s"] for fn in fns)
    for name in tracer.COUNTERS:
        metrics[name] = totals[name]
    calls = totals["groebner.buchberger.calls"]
    metrics["groebner.buchberger.repeat_frac"] = (
        totals["groebner.buchberger.repeats"] / calls if calls else 0.0
    )
    metrics["trace_overhead"] = sum(_per_case(traced).values()) / sum(_per_case(plain).values())
    silent = [name for name in EXERCISED[workload] if totals[f"{name}.calls"] == 0]
    if silent:
        raise RuntimeError(f"no calls recorded on {workload} for: {', '.join(silent)}")
    return metrics


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in tracer.function_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for layer in tracer.LAYERS:
        units[f"{layer}.self_s"] = "s"
    for name in tracer.COUNTERS:
        units[name] = "count"
    units["groebner.buchberger.repeat_frac"] = "ratio"
    units["trace_overhead"] = "ratio"
    return units


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    cases = corpus.cases(workload, seed)
    modes = (False, True) if trace else (False,)
    rounds = rounds_for(workload, seconds / len(modes))
    records = _run_rounds(cases, corpus.DEADLINES[workload], rounds, modes)
    plain = [r for r in records if not r["traced"]]
    cpu = _per_case(plain, "solve_cpu_s")
    for name, value in _per_case(plain).items():
        print(f"{workload} case {name} {value:.6g} s (unscaled CPU {cpu[name]:.6g} s)")
    failed = sum(r["error"] is not None for r in records)
    wrong = sum(r["error"] is not None and not r["timed_out"] for r in records)
    if trace:
        values = per_layer(workload, records)
        units = per_layer_units()
    else:
        values = end_to_end(records)
        units = dict(END_TO_END)
    return {
        "correct": wrong == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }


def _print_lines(workload: str, result: dict) -> None:
    for name, m in result["metrics"].items():
        print(f"{workload} {name} {m['value']:.6g} {m['unit']}")
    frac = result["failed"] / result["attempted"]
    print(f"{workload} fail_frac {frac:.6g} ({result['failed']} of {result['attempted']})")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*corpus.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    needed = [ROOT / "src" / "primarydec" / "__init__.py"]
    needed += [ROOT / corpus.FIXTURE_DIR / f"{f}.primdec" for f in corpus.FIXTURES]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"error: not in a primarydec checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    workloads = corpus.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in workloads:
        results[workload] = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        _print_lines(workload, results[workload])
    last = results[workloads[0]] if len(workloads) == 1 else results
    print(json.dumps(last))
    ok = all(r["correct"] and r["failed"] == 0 for r in results.values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
