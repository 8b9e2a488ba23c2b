"""templink benchmark: cold and resumed ``templink experiment`` over
synthetic yearly snapshots, with an outside-in per-layer trace.

Run from the repository root:

    python3 perfbench/run.py --workload graph_build --seed 1 --seconds 10 --trace 0

One run generates the workload's corpus and config from the seed (three
times; the median is ``setup_s``), then repeats a cold ``templink
experiment`` child process and a second one on the finished output
directory (resume) until ``--seconds`` have passed and at least two pairs
ran. Every child and every output check is one operation.
``--trace 1`` instead runs one untraced cold child, then the same CLI
in-process with every public templink function wrapped (cold, then
resume), then scaling probes, and prints the per-layer metrics.

The loop is closed: one child process at a time. BLAS runs one thread, set
below before numpy is imported. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; the exit
code is 0 only if every operation succeeded. Work files go under
``.perfbench-work/`` in the current directory.
"""

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

from corpus import CorpusSpec, FIRST_YEAR, generate, self_check  # noqa: E402

# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "graph_build": CorpusSpec(
        years=2, entities=1200, new_share=0.1, words=3000, zipf=1.0,
        topic_share=0.8, desc_len=15, triples_per_entity=8,
        train_mentions=512, test_mentions=200, context_len=4,
        min_count=4, max_count=60, epochs=2, batch_size=128),
    "text_train": CorpusSpec(
        years=2, entities=400, new_share=0.25, words=100000, zipf=0.6,
        topic_share=0.5, desc_len=60, triples_per_entity=3,
        train_mentions=400, test_mentions=300, context_len=12,
        min_count=5, max_count=60),
    "temporal_eval": CorpusSpec(
        years=6, entities=500, new_share=0.1, words=3000, zipf=1.0,
        topic_share=0.8, desc_len=15, triples_per_entity=4,
        train_mentions=128, test_mentions=100, context_len=4,
        min_count=4, max_count=60, batch_size=64),
}

SETUP_REPEATS = 3
MIN_PAIRS = 2
RUN_LIMIT_S = 170.0
CATEGORIES = ("continual", "new")


class Ops:
    """Counts operations (CLI invocations and output checks) and failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, name: str, ok: bool, detail: str = ""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAIL {name}: {detail}", file=sys.stderr, flush=True)


class Bench:
    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.work = root / ".perfbench-work" / workload
        self.years = [FIRST_YEAR + i for i in range(self.spec.years)]
        self.ops = Ops()
        self.started = perf_counter()
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")

    # -- set-up ----------------------------------------------------------

    def setup(self, repeats: int):
        """Generate the corpus `repeats` times; returns (seconds, shape)."""
        times, digests = [], []
        for i in range(repeats):
            d = self.work / f"setup{i}"
            t0 = perf_counter()
            shape = generate(self.spec, self.seed, d)
            shape.update(self_check(self.spec, d))
            times.append(perf_counter() - t0)
            digests.append(digest(d / "data", "*/*.tsv"))
        self.ops.check("corpus is deterministic",
                       all(d == digests[0] for d in digests),
                       "two generations of one seed differ")
        self.config = self.work / "setup0" / "run.ini"
        return times, shape

    # -- children --------------------------------------------------------

    def child(self, args: list, log: Path):
        """Run the templink CLI in a child process; returns (wall s, exit
        code, peak RSS MiB of that child)."""
        limit = max(1.0, RUN_LIMIT_S - (perf_counter() - self.started))
        with log.open("w") as fh:
            t0 = perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "templink.cli", *args],
                                    env=self.env, stdout=fh, stderr=fh,
                                    cwd=self.root)
            timer = threading.Timer(limit, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode:
            sys.stderr.write(log.read_text()[-2000:])
        return wall, proc.returncode, usage.ru_maxrss / 1024.0

    def experiment(self, out: Path, tag: str):
        wall, code, rss = self.child(
            ["experiment", "--config", str(self.config), "--out-dir", str(out)],
            self.work / f"{tag}.log")
        self.ops.check(f"{tag} exits 0", code == 0, f"exit code {code}")
        return wall, rss

    # -- output checks ---------------------------------------------------

    def check_outputs(self, out: Path, tag: str):
        for cat in CATEGORIES:
            rows = read_csv(out / f"gap_matrix_{cat}.csv")
            self.ops.check(f"{tag} gap_matrix_{cat} has years^2 rows",
                           len(rows) == len(self.years) ** 2,
                           f"{len(rows)} rows for {len(self.years)} years")
            for name in (f"gap_matrix_{cat}.csv", f"aggregate_{cat}.csv"):
                bad = [r for r in read_csv(out / name) if not recall_ok(r)]
                self.ops.check(f"{tag} {name} recalls in [0,1], non-decreasing in N",
                               not bad, f"bad rows: {bad[:2]}")

    def check_resume(self, out: Path, before: dict, csv_mtimes: dict, tag: str):
        self.ops.check(f"{tag} leaves checkpoints unchanged",
                       digest(out, "checkpoints/*.ckpt") == before["ckpt"],
                       "a checkpoint changed on resume")
        self.ops.check(f"{tag} rewrites identical result CSVs",
                       digest(out, "*.csv") == before["csv"]
                       and all((out / n).stat().st_mtime_ns > t
                               for n, t in csv_mtimes.items()),
                       "result CSVs differ or were not rewritten")

    # -- runs ------------------------------------------------------------

    def run_untraced(self, seconds: float) -> dict:
        setup_times, shape = self.setup(SETUP_REPEATS)
        cold, resume, rss = [], [], []
        first = None
        t_start = perf_counter()
        pair = 0
        while pair < MIN_PAIRS or perf_counter() - t_start < seconds:
            out = self.work / f"out{pair}"
            wall, peak = self.experiment(out, f"cold{pair}")
            cold.append(wall)
            rss.append(peak)
            self.check_outputs(out, f"cold{pair}")
            before = {"ckpt": digest(out, "checkpoints/*.ckpt"),
                      "csv": digest(out, "*.csv")}
            mtimes = {n: (out / n).stat().st_mtime_ns for n in before["csv"]}
            wall, _ = self.experiment(out, f"resume{pair}")
            resume.append(wall)
            self.check_resume(out, before, mtimes, f"resume{pair}")
            outputs = digest(out, "**/*.ckpt") | digest(out, "**/*.csv")
            if first is None:
                first = outputs
            else:
                self.ops.check(f"cold{pair} byte-identical to cold0",
                               outputs == first, "checkpoints or CSVs differ")
                shutil.rmtree(out)
            pair += 1
        gap0, gapmax = recalls(self.work / "out0")
        shutil.rmtree(self.work / "out0")
        metrics = {
            "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
            "experiment_s": (statistics.median(cold), "s", len(cold)),
            "resume_s": (statistics.median(resume), "s", len(resume)),
            "peak_rss_mb": (statistics.median(rss), "MiB", len(rss)),
            "recall16_gap0": (gap0, "fraction", 1),
            "recall16_gapmax": (gapmax, "fraction", 1),
        }
        return {"metrics": metrics, "corpus": shape,
                "samples": {"setup": setup_times, "experiment": cold,
                            "resume": resume, "peak_rss_mb": rss}}

    def run_traced(self) -> dict:
        import probes
        import templink.cli
        from layers import Phase, layer_metrics
        from tracing import Tracer

        _, shape = self.setup(1)
        base = self.work / "out_untraced"
        untraced_wall, _ = self.experiment(base, "untraced")
        self.check_outputs(base, "untraced")
        startup, code, _ = self.child(["--version"], self.work / "startup.log")
        self.ops.check("templink --version exits 0", code == 0, f"exit {code}")

        out = self.work / "out_traced"
        argv = ["experiment", "--config", str(self.config), "--out-dir", str(out)]
        tracer = Tracer().install()
        bounds = {}
        try:
            for phase in ("cold", "resume"):
                lo = len(tracer.starts)
                counters = dict(tracer.counters)
                t0 = perf_counter()
                with tracer.span(f"bench.{phase}"):
                    code = templink.cli.main(argv)
                wall = perf_counter() - t0
                self.ops.check(f"traced {phase} exits 0", code == 0, f"exit {code}")
                bounds[phase] = (lo, len(tracer.starts), wall,
                                 {k: v - counters.get(k, 0)
                                  for k, v in tracer.counters.items()})
        finally:
            tracer.uninstall()
        self.ops.check("traced cold byte-identical to untraced cold",
                       digest(out, "**/*.ckpt") | digest(out, "**/*.csv")
                       == digest(base, "**/*.ckpt") | digest(base, "**/*.csv"),
                       "tracing changed an output")
        shutil.rmtree(out)
        shutil.rmtree(base)
        tracer.save(self.work / "trace_spans.npz")
        arrays = tracer.arrays()
        cold, resume = (Phase(tracer, arrays, *bounds[p]) for p in ("cold", "resume"))
        metrics = layer_metrics(cold, resume, len(self.years), untraced_wall, startup)
        self_time = cold.self_time(15)
        print("traced cold run, largest self times:")
        for name, calls, total, own in self_time:
            print(f"  {name:40s} calls {calls:8d} total {total:9.3f} s "
                  f"self {own:9.3f} s")
        for name, value in probes.run_all().items():
            metrics[name] = (value, name.rsplit("_", 1)[1], 1)
        return {"metrics": metrics, "corpus": shape, "self_time": self_time,
                "samples": {"untraced_experiment": [untraced_wall],
                            "traced_cold": [cold.wall],
                            "traced_resume": [resume.wall]}}


def digest(base: Path, pattern: str) -> dict:
    return {str(p.relative_to(base)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(base.glob(pattern)) if p.is_file()}


def read_csv(path: Path) -> list:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def recall_ok(row: dict) -> bool:
    values = [float(v) for k, v in row.items() if k.startswith("recall@")]
    return (bool(values) and all(0.0 <= v <= 1.0 for v in values)
            and all(a <= b for a, b in zip(values, values[1:])))


def recalls(out: Path):
    """Mean recall@16 over categories at gap 0 and at the largest gap
    (forward_and_backward rows of aggregate_<category>.csv)."""
    at0, atmax = [], []
    for cat in CATEGORIES:
        rows = [r for r in read_csv(out / f"aggregate_{cat}.csv")
                if r["mode"] == "forward_and_backward"]
        by_gap = {int(r["gap"]): float(r["recall@16"]) for r in rows}
        at0.append(by_gap[0])
        atmax.append(by_gap[max(by_gap)])
    return statistics.fmean(at0), statistics.fmean(atmax)


def git_commit(root: Path):
    """HEAD of the checkout, or None where it is not a git work tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=root, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode or len(lines) != 2 or Path(lines[0]) != root.resolve():
        return None
    return lines[1]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "templink" / "cli.py").is_file():
        print(f"error: no templink sources under {root / 'src'}; "
              "run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    bench = Bench(root, args.workload, args.seed)
    shutil.rmtree(bench.work, ignore_errors=True)
    bench.work.mkdir(parents=True)

    ops = bench.ops
    try:
        result = (bench.run_traced() if args.trace
                  else bench.run_untraced(args.seconds))
    except Exception:
        traceback.print_exc()
        ops.check("benchmark run completes", False, "see the traceback above")
        print(json.dumps({"correct": False, "attempted": ops.attempted,
                          "failed": ops.failed, "metrics": {}}), flush=True)
        return 1

    import numpy
    import scipy
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas_threads": int(BLAS_THREADS), "nproc": os.cpu_count(),
        "platform": platform.platform(), "cpu": cpu_model(),
        "commit": git_commit(root), "loop": "closed, 1 client",
        "operations": {"attempted": ops.attempted, "failed": ops.failed,
                       "error_rate": ops.failed / ops.attempted},
        "corpus": result["corpus"], "samples": result["samples"],
        "self_time": result.get("self_time"),
        "metrics": {k: {"value": v, "unit": u, "n": n}
                    for k, (v, u, n) in result["metrics"].items()},
    }
    (bench.work / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    for name, (value, unit, n) in result["metrics"].items():
        print(f"{name:34s} {value:14.6g} {unit:8s} n={n}")
    print(f"{'error_rate':34s} {ops.failed / ops.attempted:14.6g} fraction "
          f"({ops.failed} of {ops.attempted} operations)")
    print("record " + json.dumps({k: record[k] for k in (
        "python", "numpy", "scipy", "blas_threads", "nproc", "commit", "seed")}))
    correct = ops.failed == 0
    print(json.dumps({"correct": correct, "attempted": ops.attempted,
                      "failed": ops.failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u, _) in result["metrics"].items()}}),
          flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
