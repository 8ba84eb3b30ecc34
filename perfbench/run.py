"""deltaenum benchmark: one seeded workload, timed end to end or traced.

    python3 perfbench/run.py --workload join_drain --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout.  The command

1. generates the workload's input files from ``--seed`` (``gen.py``);
2. runs the workload in a fresh single-threaded process (``worker.py``) that
   reads only those files, for ``--seconds`` seconds;
3. checks the answers against a reference it computes itself
   (``reference.py``), outside every timed region;
4. prints a metadata line, then, as the last line, one JSON object with
   ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
   metrics with ``--trace 0`` and the per-layer metrics with ``--trace 1``.

Results and spans are also written to ``perfbench/out/``.  Without the
package sources under ``src/deltaenum`` the command exits with status 2.
See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

import gen
import reference as ref
from reference import count_mismatches, count_prefix_mismatches

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCHEMA_VERSION = 1
CHILD_TIMEOUT_S = 160



def declared_units(kind: str) -> dict:
    """Metric name -> unit of the ``end_to_end`` or ``per_layer`` metrics
    declared in BENCHMARK.json."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in declared[kind]}


def _git_rev():
    """HEAD of the checkout's own .git, if it has one (never looks above it)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        name = head[5:]
        if (git / name).exists():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "deltaenum").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def check(workload: str, inputs: Path, outputs: dict, fps: list, ops: list):
    """(attempted, failed, inexact) for the repetitions of one run.

    The first repetition is compared with the reference; every later one
    must reproduce its fingerprint exactly.  ``ops`` holds each repetition's
    count of the operations this covers.
    """
    real = gen.SEMIRING[workload] == "real"
    inexact = 0
    if workload == "update_stream":
        n = outputs["updates"]
        reads = outputs["reads"]  # the checked reads, by updates applied
        want = ref.update_stream_reference(inputs, [*reads, n])
        failed = sum(count_prefix_mismatches(read, want[p], gen.READ_K, real) for p, read in reads.items())
        failed += count_mismatches(outputs["final"], want[n], real)
        inexact = sum(1 for t, k in outputs["final"] if want[n].get(t) != k)
    else:
        want = {
            "join_drain": ref.join_drain_reference,
            "project_agg": ref.project_agg_reference,
            "matlang_hadamard": ref.matlang_reference,
        }[workload](inputs)
        failed = count_mismatches(outputs["answers"], want, real)
        if "read" in outputs:
            failed += count_prefix_mismatches(outputs["read"], want, gen.READ_K, real)
    for fp, n_ops in zip(fps[1:], ops[1:]):
        if fp != fps[0]:
            failed += n_ops
    return sum(ops), failed, inexact


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "deltaenum" / "__init__.py").is_file():
        print(f"error: no package sources at {ROOT / 'src' / 'deltaenum'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    out_dir = HERE / "out"
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = out_dir / f"work-{name}-{os.getpid()}"
    inputs = work / "inputs"
    try:
        t = time.perf_counter()
        gen.write_inputs(gen.generate(args.workload, args.seed), inputs)
        gen_s = time.perf_counter() - t

        run_id = f"{args.workload}-seed{args.seed}"
        cmd = [sys.executable, str(HERE / "worker.py"), args.workload, str(inputs),
               repr(args.seconds), str(args.trace), run_id, str(work)]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"error: workload process exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
            return 1
        if proc.returncode != 0 or not proc.stdout.strip():
            sys.stderr.write(proc.stderr)
            print(f"error: workload process exited with {proc.returncode}", file=sys.stderr)
            return 1
        raw = json.loads(proc.stdout.strip().splitlines()[-1])
        if "metrics" not in raw:
            sys.stderr.write("".join(raw["errors"]))
            print("error: no repetition of the workload completed", file=sys.stderr)
            return 1

        t = time.perf_counter()
        with (work / "rep0.pkl").open("rb") as fh:
            outputs = pickle.load(fh)
        attempted, failed, inexact = check(args.workload, inputs, outputs, raw["fps"], raw["ops"])
        check_s = time.perf_counter() - t
        attempted += len(raw["errors"])
        failed += len(raw["errors"])
        for err in raw["errors"]:
            sys.stderr.write(err)

        values = raw["metrics"]
        if args.trace:
            values.update({
                "oracle.check_s": check_s,
                "generators.gen_s": gen_s,
                "dynamic_engine.inexact_answers": inexact,
            })
        units = declared_units("per_layer" if args.trace else "end_to_end")
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in units.items()}
        meta = {
            "schema_version": SCHEMA_VERSION,
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "repetitions": len(raw["fps"]),
            "git_rev": _git_rev(),
            "src_sha256": _src_digest(),
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
        }
        result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / f"{name}.json").write_text(
            json.dumps({"meta": meta, **result, "repetitions": raw["per_rep"]}, indent=1)
        )
        if (work / "spans.json.gz").exists():
            shutil.move(str(work / "spans.json.gz"), str(out_dir / f"{name}-spans.json.gz"))
        print(json.dumps({"meta": meta}))
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
