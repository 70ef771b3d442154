"""Self-test of the benchmark: every workload at a tiny size, and every check
shown to reject a deliberately wrong answer.

    python3 perfbench/selftest.py

Exits 0 when every item passes and prints one line per item.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import run

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
FAILURES = []


def item(name, ok):
    print(f"{'ok  ' if ok else 'FAIL'} {name}")
    if not ok:
        FAILURES.append(name)


def tiny_runs():
    """Each workload end to end, untraced and traced, with tiny inputs."""
    for wl in [w["name"] for w in BENCH["workloads"]]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            done = subprocess.run(
                [sys.executable, str(Path(run.__file__)), "--workload", wl, "--seed", "3",
                 "--seconds", "1", "--trace", str(trace), "--tiny"],
                cwd=run.ROOT, capture_output=True, text=True, timeout=170)
            try:
                res = json.loads(done.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                res = {}
            want = {m["name"]: m["unit"] for m in BENCH[section]}
            got = {k: v["unit"] for k, v in res.get("metrics", {}).items()}
            item(f"{wl} --trace {trace}: exit 0, no failed operation, every metric with its unit",
                 done.returncode == 0 and sorted(res) == ["attempted", "correct", "failed", "metrics"]
                 and res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
                 and got == want)


def rejects(name, check, results, index):
    """The check accepts the true results and rejects the corrupted one."""
    item(name, all(check(results[0])) and not check(results[1])[index])


def queries():
    import workloads
    from speed import Speed

    work = workloads.Queries(5, **run.TINY["queries"])
    results = work.run_pass(Speed(0.05))[0]
    i = next(k for k, op in enumerate(work.ops) if op[1] == "length")
    bad = list(results)
    bad[i] = dataclasses.replace(results[i], length=results[i].length + 1)
    rejects("queries: a length off by one is rejected", work.check, (results, bad), i)
    bad = list(results)
    w = results[i].witness
    letters = len(work.alphabets[work.ops[i][0]][1].letters)
    bad[i] = dataclasses.replace(results[i], witness=w[:-1] + ((w[-1] + 1) % letters,))
    rejects("queries: a witness that misses the target is rejected", work.check, (results, bad), i)
    g = next(k for k, op in enumerate(work.ops) if op[1] == "girth")
    bad = list(results)
    value = results[g].value
    bad[g] = dataclasses.replace(results[g], value=3 if value is None else value + 1)
    rejects("queries: a girth off by one is rejected", work.check, (results, bad), g)


def finite():
    import workloads
    from speed import Speed

    work = workloads.Finite(5, **run.TINY["finite"])
    results = work.run_pass(Speed(0.05))[0]
    a = next(k for k, op in enumerate(work.ops) if op[1] == "aut_group")
    bad = list(results)
    bad[a] = results[a][:-1]
    rejects("finite: a wrong |Aut| is rejected", work.check, (results, bad), a)
    t = next(k for k, op in enumerate(work.ops) if op[1] == "uniform_length_table")
    bad = list(results)
    table = dict(results[t])
    g = next(iter(reversed(table)))
    table[g] = (table[g][0] + 1, table[g][1])
    bad[t] = table
    rejects("finite: a uniform length off by one is rejected", work.check, (results, bad), t)
    for kind in ("generates", "closure", "ball"):
        k = next(k for k, op in enumerate(work.ops) if op[1] == kind)
        bad = list(results)
        r = results[k]
        if kind == "generates":
            bad[k] = dataclasses.replace(r, status="no" if r.is_yes else "yes")
        elif kind == "closure":
            bad[k] = set(r) - {work.groups[work.ops[k][0]][1].identity()}
        else:
            table = dict(r.table)
            h = next(iter(reversed(table)))
            table[h] = (table[h][0] + 1, table[h][1])
            bad[k] = dataclasses.replace(r, table=table)
        rejects(f"finite: a wrong {kind} answer is rejected", work.check, (results, bad), k)


def suite():
    import workloads

    work = workloads.Suite()
    code, data = workloads.run_cli(workloads.SUITE_ARGV)
    good = [(code, rep) for rep in workloads.split_reports(data)]
    z = work.names.index("zxzq")
    text = good[z][1][1].decode()
    flipped = text.replace('"length": 8,', '"length": 9,', 1)
    corrupt = data.replace(text.encode(), flipped.encode())
    bad = [(code, rep) for rep in workloads.split_reports(corrupt)]
    item("suite: one corrupted JSON byte in a length is rejected",
         flipped != text and all(work.check(good)) and not work.check(bad)[z])
    broken = data.replace(b"{", b"[", 1)
    try:
        reports = workloads.split_reports(broken)
    except ValueError:
        reports = []
    results = [(code, reports[k] if k < len(reports) else None) for k in range(len(work.names))]
    item("suite: a corrupted JSON structure fails every operation", not any(work.check(results)))
    item("suite: a nonzero exit code is rejected",
         not any(work.check([(1, rep) for _, rep in good])))
    passes = [run.Pass(None, 1.0, 1.0, good, [0.0] * len(good), None),
              run.Pass(None, 1.0, 1.0, [work.digest(r) for r in bad] == [work.digest(r) for r in good],
                       [0.0] * len(good), None)]
    item("suite: a pass whose bytes differ from the first is not correct",
         run._judge(work, passes)[2] is False)


def main():
    run._import_program()
    tiny_runs()
    queries()
    finite()
    suite()
    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
