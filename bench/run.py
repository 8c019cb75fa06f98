"""ilekoop benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --self-check

Run from the repository root.  One client in one process drives
``ilekoop.cli.run_command`` in a closed loop (the next request is sent when
the previous one returns) over the workload's seeded request list, with
``--threads 1`` on every grid request; the benchmark starts no threads.  The
list is run in passes until ``--seconds`` are used, at least three, and every
pass must reproduce the first pass's output bytes.  Timings are averages
over the whole run rather than best figures: the speed of a shared machine
drifts by tens of per cent over seconds, so the shortest of many passes
depends on whether the run happened to catch a quiet spell.

``--trace 0`` prints the end-to-end metrics:

- ``setup_s``: median over several fresh interpreters of the time to import
  ``ilekoop.cli`` (numpy included);
- ``wall_s``: time to serve the list once, the mean over the passes;
- ``req_p50_ms``, ``req_p90_ms``: percentiles of the latencies of every
  request served in every pass;
- ``success_ratio``: requests that passed every check / attempted requests
  (1 - fail_ratio; a failure is a wrong exit code, a missed oracle tolerance,
  or output bytes that differ from the first pass);
- ``peak_rss_mb``: peak resident memory of this process;
- ``oracle_max_err``: largest absolute deviation from a closed form.

Each workload mixes two request families (see ``workloads.py``); the same
figures except ``setup_s`` and ``peak_rss_mb`` are also printed, and
recorded, for each family's requests alone.  They are not gated.

``--trace 1`` runs the same requests, plus one request of each kind from the
other workload so that every layer reports, alternately untraced and traced
(see ``layers.py``), checks that both give identical bytes and that
``--threads 2`` FTLE output equals ``--threads 1``, and prints the per-layer
metrics.  The last stdout line is the JSON result; a fuller record (machine,
commit, digests, failures) goes to ``bench/results/``.

Metric names and units, workload names and why each was chosen are read from
``BENCHMARK.json``; the run stops if the code and that file disagree.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gzip
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
import time
import traceback
import warnings
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPEC_FILE = ROOT / "BENCHMARK.json"

MIN_PASSES = 3
SETUP_PROBES = 4  # per group of three
THREADS_PROBE_STRIDE = 8  # every 8th ftle_grid request runs at threads 1 and 2


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args(argv)
    if not (SRC / "ilekoop" / "cli.py").is_file():
        print(f"error: no ilekoop sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = load_spec()
    if args.self_check:
        return self_check()
    if args.workload not in spec["workloads"]:
        ap.error(f"--workload must be one of {', '.join(spec['workloads'])}")
    if args.trace:
        result, record = run_traced(args.workload, args.seed, args.seconds)
    else:
        result, record = run_untraced(args.workload, args.seed, args.seconds)
    units = spec["per_layer" if args.trace else "end_to_end"]
    result["metrics"] = {name: _metric(result["metrics"][name], unit)
                         for name, unit in units.items()}
    record.update(workload=args.workload, why=spec["workloads"][args.workload],
                  seed=args.seed, seconds=args.seconds,
                  trace=args.trace, machine=machine_facts(), result=result)
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = record.pop("spans", None)
    if spans is not None:
        with gzip.open(results / f"{stem}.spans.jsonl.gz", "wt", encoding="ascii") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"{args.workload} fail_ratio = {record['fail_ratio']:.6g} ratio "
              f"({record['requests_per_pass']} requests x {record['passes']} passes, "
              f"output sha256 {record['output_sha256'][:16]})")
        for fam, figures in record["families"].items():
            print(f"  {fam}: " + ", ".join(
                f"{key} = {value:.6g}" for key, value in figures.items()))
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# Running requests
# ---------------------------------------------------------------------------

class Session:
    """A scratch directory in the checkout holding one workload's inputs;
    the CLI runs with it as the working directory."""

    def __init__(self, files: dict):
        self.dir = BENCH / f".work-{os.getpid()}"
        self.files = files

    def __enter__(self):
        self.dir.mkdir()
        for name, text in self.files.items():
            (self.dir / name).write_text(text, encoding="ascii")
        self._cwd = os.getcwd()
        os.chdir(self.dir)
        return self

    def __exit__(self, *exc):
        os.chdir(self._cwd)
        shutil.rmtree(self.dir)


def execute(req):
    """Run one request; returns (seconds, digest, code, stdout, stderr,
    output texts, tangential-crossing warnings)."""
    from ilekoop import cli
    from ilekoop.koopman import TangentialCrossingWarning

    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = cli.run_command(list(req.argv))
            except Exception:  # a traceback fails the request, not the benchmark
                code = -1
                traceback.print_exc()
            seconds = time.perf_counter() - start
    files = []
    for path in map(Path, req.outputs):
        # read, then remove, so a later pass cannot pass on a stale file
        if code == 0:
            files.append(path.read_text(encoding="ascii") if path.exists() else "")
        path.unlink(missing_ok=True)
    h = hashlib.sha256(f"{code}\n".encode())
    for part in (out.getvalue(), err.getvalue(), *files):
        h.update(len(part).to_bytes(8, "little"))
        h.update(part.encode())
    tangential = sum(issubclass(w.category, TangentialCrossingWarning) for w in caught)
    return seconds, h.hexdigest(), code, out.getvalue(), err.getvalue(), files, tangential


class Ledger:
    """Pass results: latencies, digests, failures and oracle errors."""

    def __init__(self, requests):
        self.requests = requests
        self.reference = None  # digests of the first pass
        self.verdicts = []  # first-pass check result per request
        self.latencies = []  # per pass, per request, seconds
        self.pass_walls = []
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.failed_by_family = dict.fromkeys((r.family for r in requests), 0)
        self.oracle_max_err = 0.0  # over the fixed reference requests
        self.oracle_by_family = dict.fromkeys(self.failed_by_family, 0.0)
        self.oracle_max_err_all = 0.0
        self.tangential = 0

    def run_pass(self, label: str = "pass") -> list:
        import checks

        digests = []
        times = []
        for i, req in enumerate(self.requests):
            seconds, digest, code, stdout, stderr, files, tangential = execute(req)
            times.append(seconds)
            self.tangential += tangential
            digests.append(digest)
            if self.reference is None:
                ok, err, note = checks.check(req, code, stdout, stderr, files)
                self.verdicts.append(ok)
                self.oracle_max_err_all = max(self.oracle_max_err_all, err)
                if req.anchor:
                    self.oracle_max_err = max(self.oracle_max_err, err)
                    self.oracle_by_family[req.family] = max(
                        self.oracle_by_family[req.family], err)
                if not ok:
                    self._fail(label, i, req, note)
            elif digest != self.reference[i]:
                self._fail(label, i, req, "output bytes differ from the first pass")
            elif not self.verdicts[i]:
                self._fail(label, i, req, "repeats a failed output")
            self.attempted += 1
        if self.reference is None:
            self.reference = digests
        self.latencies.append(times)
        self.pass_walls.append(sum(times))
        return digests

    def _fail(self, label, i, req, note):
        self.failed += 1
        self.failed_by_family[req.family] += 1
        if len(self.failures) < 20:
            self.failures.append({"pass": label, "request": i, "argv": list(req.argv),
                                  "note": note})

    def digest(self) -> str:
        return hashlib.sha256("".join(self.reference).encode()).hexdigest()


def _metric(value, unit):
    return {"value": value, "unit": unit}


def load_spec() -> dict:
    """Workload names and metric units from BENCHMARK.json, after checking
    that they are the ones this code generates and measures."""
    import layers
    import workloads

    raw = json.loads(SPEC_FILE.read_text())
    spec = {
        "workloads": {w["name"]: w["why"] for w in raw["workloads"]},
        "end_to_end": {m["name"]: m["unit"] for m in raw["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in raw["per_layer"]},
    }
    for key, names in (("workloads", workloads.WORKLOADS), ("end_to_end", END_TO_END),
                       ("per_layer", layers.PER_LAYER)):
        if set(spec[key]) != set(names):
            raise SystemExit(f"error: {key} in {SPEC_FILE.name} differ from bench/: "
                             f"{sorted(set(spec[key]) ^ set(names))}")
    return spec


END_TO_END = ("setup_s", "wall_s", "req_p50_ms", "req_p90_ms", "success_ratio", "peak_rss_mb",
              "oracle_max_err")


def run_untraced(name: str, seed: int, seconds: float):
    import workloads

    setup_probes = measure_setup(SETUP_PROBES, warm_up=True)
    wl = workloads.generate(name, seed)
    ledger = Ledger(wl.requests)
    with Session(wl.files):
        start = time.perf_counter()
        while True:
            ledger.run_pass(f"pass{len(ledger.pass_walls)}")
            elapsed = time.perf_counter() - start
            if len(setup_probes) == SETUP_PROBES and elapsed > seconds / 2:
                setup_probes += measure_setup(SETUP_PROBES)
            if (len(ledger.pass_walls) >= MIN_PASSES
                    and elapsed + statistics.median(ledger.pass_walls) > seconds):
                break
    setup_probes += measure_setup(3 * SETUP_PROBES - len(setup_probes))
    setup_s = statistics.median(setup_probes)
    metrics = {
        "setup_s": setup_s,
        **timings(ledger.latencies),
        "success_ratio": 1.0 - ledger.failed / ledger.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "oracle_max_err": ledger.oracle_max_err,
    }
    families = {}
    for fam in workloads.WORKLOADS[name]:
        picked = [i for i, r in enumerate(wl.requests) if r.family == fam]
        families[fam] = {
            "requests_per_pass": len(picked),
            **timings([[times[i] for i in picked] for times in ledger.latencies]),
            "fail_ratio": ledger.failed_by_family[fam] / (len(picked) * len(ledger.latencies)),
            "oracle_max_err": ledger.oracle_by_family[fam],
        }
    result = {"correct": ledger.failed == 0, "attempted": ledger.attempted,
              "failed": ledger.failed, "metrics": metrics}
    record = {
        "requests_per_pass": len(wl.requests),
        "passes": len(ledger.pass_walls),
        "pass_walls_s": ledger.pass_walls,
        "latencies_ms": [[round(t * 1e3, 4) for t in times] for times in ledger.latencies],
        "latency_samples": sum(map(len, ledger.latencies)),
        "setup_probes_s": setup_probes,
        "fail_ratio": ledger.failed / ledger.attempted,
        "families": families,
        "oracle_max_err_all_requests": ledger.oracle_max_err_all,
        "output_sha256": ledger.digest(),
        "input_sha256": hashlib.sha256(wl.fingerprint().encode()).hexdigest(),
        "failures": ledger.failures,
    }
    return result, record


def timings(latencies) -> dict:
    """wall_s (mean pass) and pooled percentiles from per-pass latencies."""
    lat_ms = [s * 1e3 for times in latencies for s in times]
    return {
        "wall_s": statistics.mean(sum(times) for times in latencies),
        "req_p50_ms": statistics.median(lat_ms),
        "req_p90_ms": statistics.quantiles(lat_ms, n=10)[-1],
    }


def measure_setup(probes: int, warm_up: bool = False) -> list:
    """Import times of ilekoop.cli in fresh interpreters.  The probes run in
    three groups (before, halfway through and after the passes) so that one
    burst of machine noise moves the median less; a warm-up probe fills the
    file cache and is dropped."""
    code = ("import time; t = time.perf_counter(); import ilekoop.cli; "
            "print(repr(time.perf_counter() - t))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    times = []
    for _ in range(probes + warm_up):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout))
    return times[warm_up:]


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------

def run_traced(name: str, seed: int, seconds: float):
    import layers
    import workloads

    wl = workloads.generate(name, seed)
    requests, files = list(wl.requests), dict(wl.files)
    for fam in workloads.FAMILIES:
        if fam in workloads.WORKLOADS[name]:
            continue
        seen = set()
        for req in workloads.family_requests(fam, seed, files):
            if req.kind not in seen:
                seen.add(req.kind)
                requests.append(req)
    ftle = workloads.family_requests("ftle_grid", seed, files)

    plain, traced = Ledger(requests), Ledger(requests)
    per_pass = []
    all_spans = []
    with Session(files):
        threads = threads_probe(ftle[::THREADS_PROBE_STRIDE])
        start = time.perf_counter()
        while True:
            plain.run_pass(f"untraced{len(plain.pass_walls)}")
            tracer = layers.Tracer()
            tracer.install()
            try:
                warned = traced.tangential
                digests = traced.run_pass(f"traced{len(traced.pass_walls)}")
            finally:
                tracer.uninstall()
            if digests != plain.reference:
                traced.failed += sum(a != b for a, b in zip(digests, plain.reference))
                traced.failures.append({"pass": "traced", "note": "traced bytes differ"})
            per_pass.append(tracer.layer_metrics(traced.tangential - warned))
            all_spans.extend([len(per_pass) - 1, *s] for s in tracer.spans)
            pair = plain.pass_walls[-1] + traced.pass_walls[-1]
            if time.perf_counter() - start + pair > seconds:
                break
    metrics = {m: statistics.median(p[m] for p in per_pass) for m in per_pass[0]}
    metrics["trace.overhead_ratio"] = sum(traced.pass_walls) / sum(plain.pass_walls)
    metrics["flowmap.ftle_field.threads2_over_threads1"] = threads["ratio"]
    metrics["flowmap.ftle_field.cpu_over_wall"] = threads["cpu_over_wall"]
    attempted = plain.attempted + traced.attempted + threads["attempted"]
    failed = plain.failed + traced.failed + threads["failed"]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = {
        "requests_per_pass": len(requests),
        "passes": len(per_pass),
        "untraced_pass_walls_s": plain.pass_walls,
        "traced_pass_walls_s": traced.pass_walls,
        "output_sha256": plain.digest(),
        "traced_output_sha256": traced.digest(),
        "threads_probe": threads,
        "failures": plain.failures + traced.failures,
        "layer_map": layers.PER_LAYER,
        "spans": all_spans,
    }
    return result, record


def threads_probe(requests) -> dict:
    """The same ftle_grid problems at --threads 1 and 2: wall ratio, CPU use
    and byte identity."""
    walls = {1: 0.0, 2: 0.0}
    cpu2 = wall2 = 0.0
    failed = 0
    for req in requests:
        digests = []
        for n in (1, 2):
            argv = tuple(str(n) if prev == "--threads" else a
                         for prev, a in zip(("",) + req.argv, req.argv))
            cpu, start = time.process_time(), time.perf_counter()
            seconds, digest, code, *_ = execute(dataclasses.replace(req, argv=argv))
            walls[n] += seconds
            if n == 2:
                cpu2 += time.process_time() - cpu
                wall2 += time.perf_counter() - start
            digests.append((code, digest))
        failed += digests[0] != digests[1] or digests[0][0] != 0
    return {"requests": len(requests), "attempted": 2 * len(requests), "failed": failed,
            "wall_threads1_s": walls[1], "wall_threads2_s": walls[2],
            "ratio": walls[2] / walls[1], "cpu_over_wall": cpu2 / wall2}


# ---------------------------------------------------------------------------
# Self-check and machine facts
# ---------------------------------------------------------------------------

def self_check() -> int:
    """Request generation is a pure function of the seed, argv names only
    generated files, and every workload passes all checks twice over."""
    import workloads

    problems = []
    for name in workloads.WORKLOADS:
        a, b, c = (workloads.generate(name, s) for s in (7, 7, 8))
        if a.fingerprint() != b.fingerprint():
            problems.append(f"{name}: same seed gave different inputs")
        if a.fingerprint() == c.fingerprint():
            problems.append(f"{name}: different seeds gave the same inputs")
        for req in a.requests:
            for token in req.argv:
                if token.endswith((".json", ".csv", ".pgm")) and token not in a.files \
                        and token not in req.outputs:
                    problems.append(f"{name}: argv names {token}, which is not generated")
        ledger = Ledger(a.requests)
        with Session(a.files):
            for _ in range(2):
                ledger.run_pass()
        print(f"{name}: {len(a.requests)} requests x 2 passes, "
              f"fail_ratio {ledger.failed / ledger.attempted}, "
              f"oracle_max_err {ledger.oracle_max_err:.3g}, output {ledger.digest()[:16]}")
        problems += [f"{name}: {f['argv'][:2]} {f['note']}" for f in ledger.failures]
    for p in problems:
        print("FAIL", p)
    print("self-check", "failed" if problems else "passed")
    return 1 if problems else 0


def machine_facts() -> dict:
    import numpy

    facts = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": None,
        "caches": {},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "commit": git_commit(),
    }
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                facts["cpu_model"] = line.split(":", 1)[1].strip()
                break
    with contextlib.suppress(OSError):
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            label = f"L{level}" + ("" if kind == "Unified" else kind[0].lower())
            facts["caches"][label] = (index / "size").read_text().strip()
    return facts


def git_commit():
    """HEAD commit of the checkout, or None outside a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


if __name__ == "__main__":
    sys.exit(main())
