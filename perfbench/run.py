"""liepar benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload project --seed 1 --seconds 45 --trace 0

Run from the root of a liepar checkout; the library is imported from its
``src/``.  The run times five set-ups, each in a fresh interpreter from
process start to its first possible request, sets up once more itself,
then sends requests in whole seeded passes until ``--seconds`` have
passed, then checks every answer from outside.  Human-readable lines come
first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` (end-to-end
metrics with ``--trace 0``, per-layer metrics with ``--trace 1``).
Every run is appended to ``.perfbench/runs.jsonl``; a traced run also
writes its spans to ``.perfbench/trace-<workload>-seed<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
SETUPS = 5
TAIL_BEYOND = 10
# a request still running after this long is stopped and counted failed
DEADLINE_S = 30


class RequestTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise RequestTimeout("request exceeded %d s" % DEADLINE_S)


def _die(msg):
    sys.stderr.write("perfbench: %s\n" % msg)
    sys.exit(2)


def _import_liepar():
    if not os.path.isfile(os.path.join(SRC, "liepar", "__init__.py")):
        _die("no liepar sources under %s" % SRC)
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import liepar

    if not os.path.abspath(liepar.__file__).startswith(SRC + os.sep):
        _die("liepar was imported from outside this checkout")


def _commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def timed_setup(args):
    """Seconds from spawning a fresh interpreter that imports liepar and
    sets the workload up until it reports ready."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--setup-only",
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", "0"] + (["--tiny"] if args.tiny else []),
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    with proc.stdout:
        ready = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    _, err = proc.communicate()
    if proc.returncode != 0 or ready != b"ready\n":
        _die("set-up failed: %s" % err.decode()[-500:])
    return elapsed


def latency_tail(sorted_lat):
    """(value, percentile, samples beyond) at the highest percentile with
    TAIL_BEYOND samples beyond it; the maximum when there are too few."""
    n = len(sorted_lat)
    if n <= TAIL_BEYOND:
        return sorted_lat[-1], 100.0, 0
    i = n - TAIL_BEYOND - 1
    return sorted_lat[i], 100.0 * (i + 1) / n, TAIL_BEYOND


def run(args):
    from tracing import Tracer, layer_metrics, read_jsonl, write_jsonl
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]()
    if args.setup_only:
        wl.setup(args.seed, args.tiny)
        print("ready", flush=True)
        return
    setups = [timed_setup(args) for _ in range(1 if args.tiny else SETUPS)]
    wl.setup(args.seed, args.tiny)

    os.makedirs(OUT, exist_ok=True)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        if args.workload == "cli_cold":
            wl.trace_dir = os.path.join(OUT, "children-%d" % os.getpid())
            os.makedirs(wl.trace_dir, exist_ok=True)

    signal.signal(signal.SIGALRM, _on_alarm)
    results = []  # [pass, request, latency, answer, failure]

    def send(pass_index, req):
        if tracer is not None:
            tracer.request = len(results)
        signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
        t0 = time.perf_counter()
        try:
            answer, failure = wl.call(req), None
        except Exception as e:  # any raise fails the request
            answer, failure = None, "%s: %s" % (type(e).__name__, e)
        finally:
            latency = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
        results.append([pass_index, req, latency, answer, failure])

    t_phase = time.perf_counter()
    i = 0
    while True:
        for req in wl.requests(i):
            send(i, req)
        i += 1
        if time.perf_counter() - t_phase >= args.seconds:
            break
    t_timed = time.perf_counter() - t_phase
    # untimed requests (pass -1): checked and traced, not in the timings
    for req in getattr(wl, "once", []):
        send(-1, req)
    if tracer is not None:
        tracer.request = -1

    if args.inject_wrong:
        results[0][1] = wl.corrupt(results[0][1])
    # a raise is a known failure only where the workload names a library
    # defect for that request; any other raise and any wrong answer make
    # the run incorrect
    known_failure = getattr(wl, "known_failure", lambda req, failure: False)
    checked = {}
    known = 0
    for r in results:
        if r[4] is not None:
            if known_failure(r[1], r[4]):
                r[4] = "known defect: " + r[4]
                known += 1
            continue
        key = (id(r[1]), repr(r[3]))
        if key not in checked:
            checked[key] = wl.check(r[1], r[3])
        if checked[key] is not None:
            r[4] = "wrong answer: " + checked[key]

    attempted = len(results)
    failed = sum(1 for r in results if r[4] is not None)
    timed = [r for r in results if r[0] >= 0]
    # every timed request counts, failed or not, so failing fast cannot
    # pass for answering fast
    lat = sorted(r[2] for r in timed)
    busy = sum(lat)
    if args.workload == "cli_cold":
        rss_kb = wl.peak_rss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    tail, pct, beyond = latency_tail(lat)
    e2e = {
        "throughput_rps": (len(lat) / busy, "1/s"),
        "latency_p50_s": (statistics.median(lat), "s"),
        "latency_tail_s": (tail, "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    failures = [(n, r) for n, r in enumerate(results) if r[4] is not None]

    layers = None
    if tracer is not None:
        window = [n for n, r in enumerate(results) if r[0] in (0, -1)]
        wall = sum(results[n][2] for n in window)
        records = tracer.records(set(window))
        if args.workload == "cli_cold":
            for n in window:
                path = os.path.join(wl.trace_dir, "child-%d.jsonl" % (n + 1))
                if not os.path.isfile(path):
                    continue
                base = len(records)
                for rec in read_jsonl(path):
                    rec["request"], rec["offset"] = n, base
                    records.append(rec)
            shutil.rmtree(wl.trace_dir)
        write_jsonl(os.path.join(OUT, "trace-%s-seed%d.jsonl"
                                 % (args.workload, args.seed)), records)
        layers = layer_metrics(records, wall, len(window))

    # -- report -------------------------------------------------------------
    print("workload=%s seed=%d seconds=%s trace=%d python=%s nproc=%d"
          " commit=%s" % (args.workload, args.seed, args.seconds, args.trace,
                          platform.python_version(), os.cpu_count(),
                          _commit()))
    print("passes=%d timed_requests=%d timed_wall_s=%.3f"
          % (i, len(timed), t_timed))
    for r in results:
        if r[0] < 0:
            print("untimed %s: %.4f s" % (r[1].label, r[2]))
    print("set-ups: %s s" % ", ".join("%.4f" % s for s in setups))
    for name, (value, unit) in e2e.items():
        note = ""
        if name == "latency_tail_s":
            note = "  (p%.1f of %d samples, %d beyond)" % (pct, len(lat),
                                                          beyond)
        print("%-16s %.6g %s%s" % (name, value, unit, note))
    print("%-16s %.6g frac  (%d of %d failed, %d of them a known defect)"
          % ("failed_frac", failed / attempted, failed, attempted, known))
    for n, r in failures[:20]:
        print("FAILED request %d (pass %d) %s: %s" % (n, r[0], r[1].label,
                                                      r[4]))
    if len(failures) > 20:
        print("... %d more failed requests" % (len(failures) - 20))
    if layers is not None:
        print("traced throughput_rps %.6g 1/s (compare with an untraced"
              " run for the tracing overhead)" % e2e["throughput_rps"][0])

    metrics = layers if layers is not None else e2e
    result = {
        "correct": failed == known,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, tiny=args.tiny,
                  python=platform.python_version(), nproc=os.cpu_count(),
                  commit=_commit(), setups=setups, passes=i,
                  end_to_end={k: v for k, (v, _) in e2e.items()},
                  tail_percentile=pct, tail_samples=len(lat), known=known,
                  failures=[[n, r[1].label, r[4]] for n, r in failures])
    with open(os.path.join(OUT, "runs.jsonl"), "a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["recognize", "project", "delta", "cli_cold"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smallest algebras and one set-up (self-test)")
    ap.add_argument("--inject-wrong", action="store_true",
                    help="corrupt the first expected answer (self-test)")
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    _import_liepar()
    run(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
