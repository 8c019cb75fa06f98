"""Alternating parent/change benchmark pairs, summarised into one JSON file.

    python3 tools/bench_pairs.py --parent DIR --change DIR --out BENCH_N.json \\
        [--seeds 1-10] [--parent-commit REV] [--change-commit REV] [--note TEXT ...]

``DIR`` is a source tree with ``bench/run.py`` and ``src/`` (a clone, or an
unpacked ``git archive`` of a commit).  For every workload and seed the
script runs ``bench/run.py --trace 0`` once in each tree, one after the
other; pair k (counting from 1) runs the parent first when k is odd and the
change first otherwise, so a slow drift of the machine's speed does not
favour one side.  Then it runs ``--trace 1`` once per side and workload at
seed 1.  Workloads, run length and which direction of each metric is better
come from the change tree's ``BENCHMARK.json``.  Each run's record is read
back from the tree's ``bench/results/<workload>-seed<seed>-trace<0|1>.json``.

The output holds each side's ``src/`` Python line count and, per workload,
every pair's end-to-end metrics, pass count, output digest and family
figures; per metric the median and inclusive quartiles of each side, the
pairs the change wins, and whether the gap between the medians exceeds the
parent's interquartile range; the same summary of each request family's
``wall_s``, ``req_p50_ms`` and ``req_p90_ms``, which shows the family that
carried a change; and the count of pairs whose output digests are equal.  Nothing in either tree is changed except
``bench/results/``, which the bench itself writes.  The file is rewritten
after every pair, so a run cut short keeps the pairs it finished.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path


def run_bench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``bench/run.py`` run in ``tree``; returns its results record."""
    record = tree / "bench" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    record.unlink(missing_ok=True)  # a failed run must not leave an older record behind
    subprocess.run([sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(trace)],
                   cwd=tree, check=True, stdout=subprocess.DEVNULL)
    return json.loads(record.read_text())


def src_lines(tree: Path) -> int:
    """Lines in the Python files under ``tree/src``."""
    return sum(len(path.read_text().splitlines()) for path in (tree / "src").rglob("*.py"))


# Per-family figures, each better when lower.
FAMILY_METRICS = ("wall_s", "req_p50_ms", "req_p90_ms")


def side_figures(record: dict) -> dict:
    """End-to-end metrics plus pass count, digest, verdict and family figures."""
    out = {name: m["value"] for name, m in record["result"]["metrics"].items()}
    out.update(passes=record["passes"], output_sha256=record["output_sha256"],
               correct=record["result"]["correct"])
    out["families"] = {fam: {k: figures[k] for k in FAMILY_METRICS}
                       for fam, figures in record["families"].items()}
    return out


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarise(pairs: list[dict], better: dict) -> dict:
    """Per metric: each side's spread, the change's wins and ties, the ratio
    of the medians, and whether the medians differ by more than the
    parent's IQR.  ``better`` maps metric names to "lower" or "higher"."""
    summary = {}
    for name, direction in better.items():
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        sign = 1.0 if direction == "lower" else -1.0
        wins = sum(sign * (c - p) < 0.0 for p, c in zip(parent, change))
        ties = sum(c == p for p, c in zip(parent, change))
        ps, cs = spread(parent), spread(change)
        summary[name] = {
            "parent": ps, "change": cs, "change_wins": wins, "ties": ties, "pairs": len(pairs),
            "median_change_ratio": cs["median"] / ps["median"] if ps["median"] else None,
            "median_gap_exceeds_parent_iqr": abs(cs["median"] - ps["median"]) > ps["iqr"],
        }
    return summary


def summarise_families(pairs: list[dict]) -> dict:
    """:func:`summarise` of each request family's ``FAMILY_METRICS``."""
    return {fam: summarise([{side: p[side]["families"][fam] for side in ("parent", "change")}
                            for p in pairs], dict.fromkeys(FAMILY_METRICS, "lower"))
            for fam in pairs[0]["parent"]["families"]}


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--seeds", type=_seeds, default=_seeds("1-10"), help="FIRST-LAST")
    ap.add_argument("--parent-commit")
    ap.add_argument("--change-commit")
    ap.add_argument("--note", action="append", default=[])
    args = ap.parse_args(argv)
    if len(args.seeds) < 2:
        ap.error("--seeds needs at least two seeds for quartiles")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    out = {
        "what": f"alternating parent/change pairs of bench/run.py at --seconds {seconds}, one "
                "untraced run per side and seed, plus one traced run (seed 1) per side",
        "parent_commit": args.parent_commit, "change_commit": args.change_commit,
        "command": f"python3 bench/run.py --workload W --seed S --seconds {seconds} --trace 0|1",
        "machine": None, "src_lines": {side: src_lines(tree) for side, tree in trees.items()},
        "workloads": {}, "traced_seed1": {},
        "notes": [f"Seeds {args.seeds[0]}-{args.seeds[-1]} per workload; pair k ran the parent "
                  "first when k is odd, the change first otherwise."] + args.note,
    }
    for workload in (w["name"] for w in spec["workloads"]):
        pairs = []
        for k, seed in enumerate(args.seeds, 1):
            first = "parent" if k % 2 else "change"
            pair = {"seed": seed, "first": first, "parent": None, "change": None}
            for side in (first, "change" if first == "parent" else "parent"):
                start = time.monotonic()
                record = run_bench(trees[side], workload, seed, seconds, 0)
                pair[side] = side_figures(record)
                facts = dict(record["machine"])
                commit = facts.pop("commit", None)
                out[f"{side}_commit"] = out[f"{side}_commit"] or commit
                out["machine"] = out["machine"] or facts
                print(f"{workload} seed {seed} {side}: wall_s {pair[side]['wall_s']:.4g} "
                      f"({time.monotonic() - start:.0f} s)", file=sys.stderr)
            pair["same_output_sha256"] = (pair["parent"]["output_sha256"]
                                          == pair["change"]["output_sha256"])
            pairs.append(pair)
            out["workloads"][workload] = {"pairs": pairs}
            save(args.out, out)
        out["workloads"][workload].update(
            summary=summarise(pairs, better), family_summary=summarise_families(pairs),
            same_output_sha256_pairs=sum(p["same_output_sha256"] for p in pairs))
        for side in ("parent", "change"):
            record = run_bench(trees[side], workload, 1, seconds, 1)
            out["traced_seed1"].setdefault(workload, {})[side] = {
                "correct": record["result"]["correct"], "output_sha256": record["output_sha256"],
                **{name: m["value"] for name, m in record["result"]["metrics"].items()}}
        save(args.out, out)
    return 0


def save(path: Path, out: dict) -> None:
    path.write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    sys.exit(main())
