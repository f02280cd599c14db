"""Fast self-check of the benchmark (about a minute on 2 cores).

    python3 perfbench/selfcheck.py

Runs every workload briefly with the default seed, untraced and traced, and
checks that: each run exits 0 and ends with the JSON line; every
BENCHMARK.json metric is reported with its unit; every name in PRINTED (the
end-to-end metrics of the README's printed-metric table) is printed; all
operations and oracle checks pass and the recorded output digests match.
Then it runs one workload at another seed, where the gate replays the
default seed's digested operations. Finally it checks that a directory
holding only BENCHMARK.json and the benchmark refuses to run and prints no
result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from env import WORKLOAD_NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PRINTED = ("setup_s", "peak_rss_mb", "fail_frac", "gens_per_s", "tour_gap_pct",
           "steps_per_s", "final_err_mm", "points_per_s", "evals_per_s",
           "eval_ms_p50", "eval_ms_tail", "err_to_bound_max")


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600, check=False)


def check_run(trace: int, spec: list[dict]) -> list[str]:
    proc = run(ROOT, "--workload", "all", "--seconds", "1", "--trace", str(trace))
    return check_output(f"trace {trace}", proc, WORKLOAD_NAMES, spec,
                        PRINTED if trace == 0 else ())


def check_output(label: str, proc, workloads, spec: list[dict],
                 printed_names) -> list[str]:
    if proc.returncode != 0:
        return [f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-400:]}"]
    lines = proc.stdout.strip().splitlines()
    line = json.loads(lines[-1])
    bad = []
    if set(line) != {"correct", "attempted", "failed", "metrics"}:
        bad.append(f"{label}: result keys {sorted(line)}")
    if not line["correct"] or line["failed"] or line["attempted"] < 1:
        bad.append(f"{label}: correct={line['correct']} failed={line['failed']}")
        bad += [ln for ln in lines if " FAILED " in ln][:10]
    for w in workloads:
        for m in spec:
            key = f"{w}.{m['name']}" if len(workloads) > 1 else m["name"]
            got = line["metrics"].get(key)
            if got is None or got["unit"] != m["unit"]:
                bad.append(f"{label}: {w}.{m['name']} missing or wrong unit: {got}")
    printed = {ln.split()[1] for ln in lines[:-1] if len(ln.split()) > 2}
    bad += [f"{label}: metric {n} not printed" for n in printed_names if n not in printed]
    return bad


def check_other_seed(spec: list[dict]) -> list[str]:
    proc = run(ROOT, "--workload", "flc-eval", "--seed", "2", "--seconds", "1",
               "--trace", "0")
    bad = check_output("seed 2", proc, ("flc-eval",), spec, ())
    if proc.returncode == 0 and "FAILED" not in proc.stdout:
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        ops = next(int(float(ln.split()[2])) for ln in proc.stdout.splitlines()
                   if ln.split()[1:2] == ["ops"])
        if line["attempted"] <= ops:
            bad.append("seed 2: the default seed's operations were not replayed")
    return bad


def check_refuses_without_sources() -> list[str]:
    (HERE / "work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "work") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("work", "traces", "__pycache__"))
        proc = run(bare, "--workload", "flc-eval", "--seconds", "1", "--trace", "0")
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return ["ran without the package sources"]
    return []


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = (check_run(0, bench["end_to_end"]) + check_run(1, bench["per_layer"])
                + check_other_seed(bench["end_to_end"]) + check_refuses_without_sources())
    for p in problems:
        print(f"selfcheck: {p}")
    print("selfcheck: ok" if not problems else f"selfcheck: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
