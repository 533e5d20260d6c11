"""The admpoisson benchmark.

    python3 perfbench/run.py --workload {cli_small,check_large,search,all}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout; admpoisson is imported from its src/ (and
the run stops with exit code 2 when there is none).  Each workload is a
closed loop with one client: the next request is sent when the previous one
has completed.  The loop runs whole rounds of the workload's request list,
at least three, until the requests have taken S seconds at reference speed,
then checks every answer with the benchmark's own oracle (`verify.py`).
The last stdout line is one JSON object {"correct", "attempted", "failed",
"metrics"}; the lines before it start with '#' and give machine metadata
and a readable summary, wall-clock figures included.  `--workload all`
runs the three in turn and prefixes each metric with its workload
(peak_rss_mb of an in-process workload is then the process peak so far).

Times are at reference speed (`refclock.py`): each request's wall time is
scaled by how fast the host ran a fixed calibration loop around it, timed
between requests on the same CPU (the run and the children it starts are
pinned to one CPU).  So the figures of runs minutes apart on a shared host,
whose speed drifts, can be compared.

End-to-end metrics (--trace 0):
  throughput_rps   correct requests per second of request time
  latency_p50_ms   median request latency
  latency_tail_ms  the highest percentile with at least 10 samples beyond it
                   (its percentile and sample count are in the summary)
  first_hit_ms     median time from a request's start to its first output
                   line; for search, from spawn to the first '# instance'
                   of the requests that build the (2,5) catalog
  peak_rss_mb      peak resident memory of the measured process (for search,
                   of the largest child)
  setup_s          median time of a fresh interpreter running one trivial
                   `check` (interpreter start, imports, parsing)
Failed requests are `failed` in the JSON line; error_rate is printed in the
summary.

Per-layer metrics (--trace 1) come from a separate pass: the same rounds run
first untraced and then with every public admpoisson function wrapped by
`tracer.py` (inside the child processes for search); trace.overhead is the
ratio of the two request times at reference speed.  Spans are written to
perfbench/_out/.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import gen      # noqa: E402
import oracle   # noqa: E402
import refclock  # noqa: E402
import tracer   # noqa: E402
import verify   # noqa: E402

WORKLOADS = ("cli_small", "check_large", "search")
SETUP_RUNS = 11
TAIL_BEYOND = 10
WARM_UP_S = 2.0
MIN_ROUNDS = 3      # see gen.search_requests for why three


class Capture(io.StringIO):
    """stdout buffer that remembers when the first byte was written."""

    first = None

    def write(self, s):
        if self.first is None and s:
            self.first = time.perf_counter()
        return super().write(s)


def child_env():
    """Children import admpoisson from src/ only, and flush every line so
    that the first hit is seen when it is printed."""
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONUNBUFFERED="1")


# ---------------------------------------------------------------- workloads

class InProcess:
    """cli_small / check_large: admpoisson.cli.run_command in this process."""

    def __init__(self, name, seed, work):
        self.cases = gen.cli_small_cases(seed) if name == "cli_small" \
            else gen.check_large_cases(seed)
        self.paths = []
        for k, case in enumerate(self.cases):
            path = work / f"{k}.alg"
            path.write_text(case.text, encoding="utf-8")
            self.paths.append(str(path))
        self.seed = seed
        self.tracer = None
        self.first_hit_requests = set(range(len(self.cases)))

    def __len__(self):
        return len(self.cases)

    def run(self, k):
        from admpoisson.cli import run_command
        out, err = Capture(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run_command(self.cases[k].argv(self.paths[k]))
        except Exception as exc:          # a crash is a failed request
            code = f"crash: {type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        return t1 - t0, (out.first or t1) - t0, code, out.getvalue()

    def check(self, k, code, out):
        case = self.cases[k]
        if isinstance(code, str):
            return False, code
        if case.kind == "check":
            return verify.check_verdict(case, code, out)
        return verify.check_build(case, code, out, oracle.rng_for(self.seed, "build", k))

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def start_trace(self, out_dir):
        self.tracer = tracer.install(tracer.Tracer())

    def trace_dumps(self, out_dir):
        return [self.tracer.as_dict()]

    def family(self, k):
        p = self.cases[k].doc.f.p
        return "Q" if p == 0 else f"GF({p})"


class Search:
    """search: one child process per request."""

    def __init__(self, seed, work):
        self.reqs = gen.search_requests(seed)
        self.work = work
        for req in self.reqs:
            for name, doc in req.files.items():
                (work / name).write_text(oracle.write_doc(doc), encoding="utf-8")
        self.max_rss_kb = 0
        self.trace_dir = None
        self.first_hit_requests = {k for k, req in enumerate(self.reqs) if req.catalog}
        self.n_trace = 0

    def __len__(self):
        return len(self.reqs)

    def run(self, k):
        argv = self.reqs[k].argv(str(self.work))
        if self.trace_dir is None:
            cmd = [sys.executable, "-m", "admpoisson.cli"] + argv
        else:
            self.n_trace += 1
            out = self.trace_dir / f"child-{self.n_trace}.json"
            cmd = [sys.executable, str(HERE / "child.py"), str(out), "--"] + argv
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True, env=child_env(), cwd=str(ROOT))
        first, lines = None, []
        for line in proc.stdout:
            if first is None and line.startswith("# instance"):
                first = time.perf_counter()
            lines.append(line)
        proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
        t1 = time.perf_counter()
        self.max_rss_kb = max(self.max_rss_kb, usage.ru_maxrss)
        return t1 - t0, (first or t1) - t0, proc.returncode, "".join(lines)

    def check(self, k, code, out):
        req = self.reqs[k]
        ok, _hits, why = verify.check_search(req, code, out, int(req.opt("--field")))
        return ok, why

    def peak_rss_mb(self):
        return self.max_rss_kb / 1024

    def start_trace(self, out_dir):
        self.trace_dir = out_dir

    def trace_dumps(self, out_dir):
        return [json.loads(p.read_text(encoding="utf-8"))
                for p in sorted(out_dir.glob("child-*.json"))]

    def family(self, k):
        return self.reqs[k].target


def make_workload(name, seed, work):
    if name == "search":
        return Search(seed, work)
    return InProcess(name, seed, work)


def run_rounds(wl, clock, seconds=None, rounds=None, min_rounds=MIN_ROUNDS):
    """Closed loop over whole rounds of the request list; stop after
    `rounds` rounds, or once the requests have taken `seconds` at reference
    speed and at least `min_rounds` rounds are done.  Counting reference-speed
    time, not wall time, keeps the number of rounds (and so which request
    the tail percentile falls on) the same however loaded the host is.
    The clock calibrates between requests.  Returns the records (request,
    start, latency, time to first output, exit code, output) with wall
    times, and the number of rounds."""
    recs = []
    done = 0
    while True:
        for k in range(len(wl)):
            clock.tick()
            t0 = time.perf_counter()
            lat, first, code, out = wl.run(k)
            recs.append((k, t0, lat, first, code, out))
        done += 1
        clock.calibrate()
        if rounds is not None and done >= rounds:
            return recs, done
        if rounds is None and done >= min_rounds and \
                sum(r[1] for r in scaled(recs, clock)) >= seconds:
            return recs, done


def scaled(recs, clock):
    """(request, latency, time to first output) at reference speed."""
    out = []
    for k, t0, lat, first, *_ in recs:
        f = clock.factor(t0, t0 + lat)
        out.append((k, lat * f, first * f))
    return out


def warm_up(wl, clock, seconds=WARM_UP_S):
    """Untimed requests, so that lazy set-up and the CPU clock settle."""
    start = time.perf_counter()
    for k in range(len(wl)):
        clock.tick()
        wl.run(k)
        if time.perf_counter() - start >= seconds:
            return


def check_all(wl, recs):
    """Verify every answer; identical answers to one request are checked once."""
    memo, failures = {}, []
    for k, _t0, _lat, _first, code, out in recs:
        key = (k, str(code), hashlib.sha256(out.encode("utf-8")).hexdigest())
        if key not in memo:
            memo[key] = wl.check(k, code, out)
        ok, why = memo[key]
        if not ok:
            failures.append((k, why))
    return failures


# ---------------------------------------------------------------- set-up

def tiny_check_file(work):
    path = work / "setup.alg"
    path.write_text("format 1\nfield rational\ndim 1\nop star\nstar: e1 e1 = 1 e1\n",
                    encoding="utf-8")
    return str(path)


def measure_setup(work, clock):
    """Median over SETUP_RUNS fresh interpreters of the time to run one
    trivial `check`, at reference speed (raw wall median second)."""
    path = tiny_check_file(work)
    spans = []
    for _ in range(SETUP_RUNS):
        clock.calibrate()
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "admpoisson.cli", "check",
                               "adm-poisson", path], capture_output=True, text=True,
                              env=child_env(), cwd=str(ROOT))
        spans.append((t0, time.perf_counter()))
        if proc.returncode != 0 or not proc.stdout.startswith("OK adm-poisson"):
            raise RuntimeError(f"set-up check failed: {proc.stdout!r} {proc.stderr!r}")
    clock.calibrate()
    return (statistics.median((t1 - t0) * clock.factor(t0, t1) for t0, t1 in spans),
            statistics.median(t1 - t0 for t0, t1 in spans))


def numpy_import_s():
    vals = []
    for _ in range(3):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import numpy"],
                              capture_output=True, text=True, env=child_env(),
                              cwd=str(ROOT))
        for line in proc.stderr.splitlines():
            parts = [s.strip() for s in line.split("|")]
            if len(parts) == 3 and parts[2] == "numpy":
                vals.append(int(parts[1]) / 1e6)
    return statistics.median(vals)


# ---------------------------------------------------------------- metrics

def tail(lats):
    """(value, percentile) of the highest percentile with TAIL_BEYOND
    samples beyond it."""
    s = sorted(lats)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(name, seed, seconds, work):
    wl = make_workload(name, seed, work)
    clock = refclock.RefClock()
    setup, setup_wall = measure_setup(work, clock)
    warm_up(wl, clock)
    recs, rounds = run_rounds(wl, clock, seconds=seconds)
    rss = wl.peak_rss_mb()
    failures = check_all(wl, recs)
    ref = scaled(recs, clock)
    lats = [r[1] for r in ref]
    tail_v, tail_q = tail(lats)
    correct = len(recs) - len(failures)
    m = {
        "throughput_rps": metric(correct / sum(lats), "1/s"),
        "latency_p50_ms": metric(statistics.median(lats) * 1e3, "ms"),
        "latency_tail_ms": metric(tail_v * 1e3, "ms"),
        "first_hit_ms": metric(statistics.median(
            r[2] for r in ref if r[0] in wl.first_hit_requests) * 1e3, "ms"),
        "peak_rss_mb": metric(rss, "MB"),
        "setup_s": metric(setup, "s"),
    }
    walls = [r[2] for r in recs]
    speed = [refclock.REF_S / t for t in clock.times]
    shares = {}
    for k, _t0, lat, *_ in recs:
        fam = wl.family(k)
        shares[fam] = shares.get(fam, 0.0) + lat
    print(f"# {name}: {len(recs)} requests in {rounds} rounds of {len(wl)}, "
          f"{sum(walls):.2f} s wall, {sum(lats):.2f} s at reference speed; "
          f"failed {len(failures)}, error_rate {len(failures) / len(recs):.4f}")
    print(f"# {name}: host speed over reference (from {len(speed)} calibrations): "
          f"median {statistics.median(speed):.3f}, range {min(speed):.3f}-{max(speed):.3f}")
    print(f"# {name}: wall-clock throughput {correct / sum(walls):.4g} 1/s, "
          f"latency p50 {statistics.median(walls) * 1e3:.4g} ms, "
          f"tail {tail(walls)[0] * 1e3:.4g} ms, setup {setup_wall:.4g} s")
    print(f"# {name}: latency_tail_ms is p{tail_q:.1f} "
          f"({TAIL_BEYOND} of {len(recs)} samples beyond it)")
    print(f"# {name}: time share " + ", ".join(
        f"{fam} {s / sum(shares.values()):.1%}" for fam, s in sorted(shares.items())))
    for k, why in failures[:20]:
        print(f"# {name}: FAILED request {k}: {why}")
    return len(recs), len(failures), m


def per_layer(name, seed, seconds, work, out_dir):
    wl = make_workload(name, seed, work)
    clock = refclock.RefClock()
    warm_up(wl, clock)
    recs_u, rounds = run_rounds(wl, clock, seconds=seconds / 4, min_rounds=1)
    trace_dir = Path(tempfile.mkdtemp(dir=work))
    wl.start_trace(trace_dir)
    recs_t, _ = run_rounds(wl, clock, rounds=rounds)
    ref_u = sum(r[1] for r in scaled(recs_u, clock))
    ref_t = sum(r[1] for r in scaled(recs_t, clock))
    dumps = wl.trace_dumps(trace_dir)
    failures = check_all(wl, recs_u) + check_all(wl, recs_t)
    summary = tracer.summarize(dumps)
    summary["search.hits"] = sum(verify.split_instances(r[5])[1] or 0 for r in recs_t) \
        if name == "search" else 0
    summary["search.hit_ratio"] = (summary["search.hits"] / summary["search.exact_checks"]
                                   if summary["search.exact_checks"] else 0.0)
    summary["setup.numpy_import_s"] = numpy_import_s()
    summary["trace.overhead"] = ref_t / ref_u
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / f"trace-{name}-{seed}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": name, "seed": seed, "traces": dumps}, fh)
    m = {key: metric(val, layer_unit(key)) for key, val in summary.items()}
    print(f"# {name}: traced {len(recs_t)} requests ({rounds} rounds), at reference "
          f"speed untraced {ref_u:.2f} s, traced {ref_t:.2f} s, "
          f"trace.overhead {ref_t / ref_u:.2f}; failed {len(failures)}")
    for k, why in failures[:20]:
        print(f"# {name}: FAILED request {k}: {why}")
    return len(recs_u) + len(recs_t), len(failures), m


def layer_unit(key):
    if key.endswith("_s"):
        return "s"
    if key.startswith("fileformat.bytes"):
        return "B"
    if key.endswith(("fraction", "ratio", "overhead")):
        return "ratio"
    return "count"


def metadata():
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    import numpy
    digest = hashlib.sha256()
    for path in sorted((SRC / "admpoisson").glob("*.py")):
        digest.update(path.read_bytes())
    commit = "unknown"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.CalledProcessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                                    capture_output=True, text=True,
                                    check=True).stdout.strip()
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "commit": commit, "src_sha256": digest.hexdigest()[:16]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.trace and args.workload == "all":
        ap.error("--trace 1 runs one workload at a time")

    if not (SRC / "admpoisson" / "cli.py").is_file():
        print(f"error: no admpoisson sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import admpoisson
    if Path(admpoisson.__file__).resolve().parent != SRC / "admpoisson":
        print(f"error: admpoisson imported from {admpoisson.__file__}", file=sys.stderr)
        return 2
    print("# meta " + json.dumps(metadata()))

    # One CPU for the benchmark and the children it starts, so that the
    # calibrations between requests time the CPU the requests run on.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    print(f"# pinned to CPU {cpu}")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    (HERE / "_work").mkdir(exist_ok=True)
    attempted = failed = 0
    metrics = {}
    for name in names:
        work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=HERE / "_work"))
        try:
            if args.trace:
                n, bad, m = per_layer(name, args.seed, args.seconds, work, HERE / "_out")
            else:
                n, bad, m = end_to_end(name, args.seed, args.seconds, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        attempted += n
        failed += bad
        for key, val in m.items():
            metrics[key if len(names) == 1 else f"{name}.{key}"] = val
            print(f"# {name}: {key} = {val['value']:.6g} {val['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
