"""Self-test of the benchmark, at tiny sizes.

    python3 perfbench/selftest.py

For every workload, also those BENCHMARK.json leaves out: the untraced
run prints each end-to-end metric of BENCHMARK.json with its unit and
fails no request except the known library defect the workload names
(on ``delta``, exactly its requests whose W-distance is not an
involution); two traced runs with one seed print each per-layer metric
and agree exactly on every
``calls``/``entries`` count; a run fed one wrong expected answer counts
it as a failure and reports ``correct: false``.  Then the benchmark
must refuse to run in a directory holding only BENCHMARK.json and its
own files, and the cold ``config`` commands must reproduce the golden
reports byte for byte.  Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7


def _run(args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "run.py")]
                          + args, cwd=cwd, capture_output=True, text=True,
                          timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc, lines


def _result(workload, *extra):
    proc, lines = _run(["--workload", workload, "--seed", str(SEED),
                        "--seconds", "1", "--tiny"] + list(extra))
    if proc.returncode != 0:
        raise AssertionError("exit %d: %s" % (proc.returncode, proc.stderr[-500:]))
    return json.loads(lines[-1]), lines[:-1]


def _same_metrics(got, spec):
    want = {m["name"]: m["unit"] for m in spec}
    have = {k: v["unit"] for k, v in got["metrics"].items()}
    if have != want:
        raise AssertionError("metrics differ from BENCHMARK.json: %s"
                             % sorted(set(have.items()) ^ set(want.items())))
    if any(not isinstance(v["value"], (int, float)) for v in got["metrics"].values()):
        raise AssertionError("non-numeric metric value")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    checks = []

    def check(name, fn):
        try:
            fn()
            checks.append((name, None))
        except AssertionError as e:
            checks.append((name, str(e)))
        print("%-4s %s%s" % ("ok" if checks[-1][1] is None else "FAIL", name,
                             "" if checks[-1][1] is None else ": " + checks[-1][1]),
              flush=True)

    # every workload, also those BENCHMARK.json leaves out
    for w in WORKLOADS:
        def untraced(w=w):
            res, lines = _result(w, "--trace", "0")
            _same_metrics(res, bench["end_to_end"])
            if not any(line.startswith("failed_frac") for line in lines):
                raise AssertionError("failed_frac not printed")
            failed = [x for x in lines if x.startswith("FAILED")]
            known = [x for x in failed if ": known defect: " in x]
            if not res["correct"] or len(known) != res["failed"] \
                    or res["attempted"] < 1:
                raise AssertionError("%d of %d requests failed: %s" % (
                    res["failed"], res["attempted"],
                    [x for x in failed if x not in known][:3]))
            passes = int(next(x for x in lines if x.startswith("passes="))
                         .split()[0][len("passes="):])
            if w == "delta" and len(known) != 2 * passes:
                raise AssertionError("%d known-defect failures in %d passes,"
                                     " expected the 2 non-involution distances"
                                     " of gl(3) per pass" % (len(known), passes))

        def traced(w=w):
            a, _ = _result(w, "--trace", "1")
            b, _ = _result(w, "--trace", "1")
            _same_metrics(a, bench["per_layer"])
            counts = [k for k in a["metrics"]
                      if k.endswith(".calls") or k.endswith(".entries")]
            diff = [k for k in counts
                    if a["metrics"][k]["value"] != b["metrics"][k]["value"]]
            if diff:
                raise AssertionError("counts differ between runs: %s" % diff)

        def injected(w=w):
            res, lines = _result(w, "--trace", "0", "--inject-wrong")
            if res["correct"] or res["failed"] < 1:
                raise AssertionError("wrong expected answer was not caught")
            if not any(x.startswith("FAILED request 0 ") for x in lines):
                raise AssertionError("failing request not named")

        check("%s: end-to-end metrics, no unexpected failure" % w, untraced)
        check("%s: per-layer metrics, counts repeat exactly" % w, traced)
        check("%s: a wrong expected answer is a failure" % w, injected)

    def refuses_without_sources():
        bare = os.path.join(ROOT, ".perfbench", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in bench["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        try:
            proc, lines = _run(["--workload", bench["workloads"][0]["name"],
                                "--seed", "1", "--seconds", "1", "--trace", "0"],
                               cwd=bare)
        finally:
            shutil.rmtree(bare)
        if proc.returncode == 0 or lines:
            raise AssertionError("ran without liepar sources")

    def goldens():
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        for name in ("tetrahedron", "octahedron"):
            out = subprocess.run([sys.executable, "-m", "liepar.cli", "config",
                                  name], cwd=ROOT, env=env, capture_output=True,
                                 timeout=170).stdout
            with open(os.path.join(ROOT, "src", "liepar", "golden",
                                   name + ".json"), "rb") as fh:
                if out != fh.read() + b"\n":
                    raise AssertionError("config %s differs from its golden"
                                         % name)

    check("refuses to run without liepar sources", refuses_without_sources)
    check("cold config reports equal the goldens", goldens)
    bad = [name for name, err in checks if err is not None]
    print("%d of %d checks failed" % (len(bad), len(checks)))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
