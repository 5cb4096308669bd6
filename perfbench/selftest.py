"""Self-test of the benchmark: two cold runs of each case print byte-identical answers.

Usage: python3 perfbench/selftest.py [--seed N]

Runs every case of the cli, points and minass workloads twice, each time in a
fresh process, and fails (exit 1) if an answer differs between the two runs,
if a case errs, or if an answer is wrong. The cliff workload is left out: its
cases hit their deadline and so print no answer.
"""

from __future__ import annotations

import argparse
import json
import sys

import corpus
from run import check, run_case

WORKLOADS = ("cli", "points", "minass")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    bad = 0
    for workload in WORKLOADS:
        for case in corpus.cases(workload, args.seed):
            runs = [run_case(case, corpus.DEADLINES[workload], False) for _ in range(2)]
            errors = [r["error"] or check(case, r["answer"]) for r in runs]
            texts = [json.dumps(r["answer"], sort_keys=True) for r in runs]
            if any(errors):
                status = f"FAIL: {next(e for e in errors if e)}"
            elif texts[0] != texts[1]:
                status = "FAIL: the two runs printed different answers"
            else:
                status = "ok"
            bad += status != "ok"
            print(f"{workload} {case.name}: {status}")
    print("selftest passed" if not bad else f"selftest failed: {bad} cases")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
