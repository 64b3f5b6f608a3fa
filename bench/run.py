"""Benchmark of lindsum: CLI latency, grid evaluation and the verify battery.

    python3 bench/run.py --workload {cli,grid,verify,all} --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it measures the code under src/.  Each
workload runs in a fresh single-threaded worker process (bench/worker.py),
closed-loop with one client:

  cli     sequential fresh-process calls of `python -m lindsum.cli`,
          rotating through mttf, pdf, reliability, sample, moments and
          moments --verify; at least seven rotations (42 calls).
  grid    in-process: a fresh SumSpec per member x theta x n, pdf and
          survival on a 10k-point grid, then scalar pdf/survival calls, then
          an edge slice of specs with known underflow/overflow defects.
  verify  in-process verify_all over Lindley and RamAwadh with the
          documented seeds; at least one pass.

Every output is checked against bench/oracle.py, which shares no code with
the package.  The last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with --trace 0, the per-layer metrics with --trace 1 (spans
from bench/spans.py).  The lines before it name the environment and the
workload's metrics under their own names (cli_call_ms_p50, ...).  Times are CPU
times of the measured process scaled by machine-speed probes
(bench/probes.py); the unscaled CPU times are printed beside them.
Evaluations of the edge slice that raise or disagree count in `failed` but
leave `correct` true; any other failure makes `correct` false.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
from pathlib import Path

import probes

# Pin every thread pool before numpy or scipy load, here and in each child.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
# Children run with the checkout as working directory and import its src/.
os.environ["PYTHONPATH"] = os.pathsep.join(
    ["src"] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".bench_out"

WORKLOADS = ("cli", "grid", "verify")
# Fewest passes in a run: 7 CLI rotations put ten calls beyond the p75.
MIN_PASSES = {"cli": 7, "grid": 3, "verify": 1}
# Set-up is measured this many times per run, in fresh processes.
SETUP_SAMPLES = 3
WORKER_TIMEOUT_S = 170

GRID_MEMBERS = ("lindley", "shanker", "akash", "ishita", "pranav", "rani", "ramawadh")
GRID_THETAS = (0.5, 2.0)
GRID_NS = (1, 5, 50)
GRID_POINTS = 10_000
SCALAR_CALLS = 16  # per function and spec
CHECK_STRIDE = 100  # the oracle checks every 100th grid point
EDGE_POINTS = 300
# ROADMAP item 2: underflowing weights and survival past rate*t = 708, and
# overflow of theta**k.  Kept whole so that fixing them shows.
EDGE_SPECS = (
    [(m, theta, 500) for m in GRID_MEMBERS for theta in GRID_THETAS]
    + [("ramawadh", 1.0, 150), ("ramawadh", 1.0, 200),
       ("ramawadh", 1e200, 5), ("lindley", 1e-200, 5)]
)
VERIFY_MEMBERS = ("lindley", "ramawadh")


def make_inputs(workload: str, seed: int, oracle) -> dict:
    """The workload's inputs, from the seed alone."""
    rng = random.Random(seed)
    if workload == "grid":
        main = []
        for member in GRID_MEMBERS:
            for theta in GRID_THETAS:
                for n in GRID_NS:
                    hi = 3.0 * oracle.SumOracle(member, theta, n).mean()
                    main.append({"member": member, "theta": theta, "n": n, "hi": hi,
                                 "points": GRID_POINTS,
                                 "scalar": [rng.uniform(0.0, hi) for _ in range(SCALAR_CALLS)]})
        edge = [{"member": m, "theta": theta, "n": n, "points": EDGE_POINTS,
                 "hi": 3.0 * oracle.SumOracle(m, theta, n).mean()}
                for m, theta, n in EDGE_SPECS]
        return {"main": main, "edge": edge, "check_stride": CHECK_STRIDE}
    if workload == "verify":
        return {"members": list(VERIFY_MEMBERS)}
    return {"commands": cli_commands(rng)}


def cli_commands(rng: random.Random) -> list[dict]:
    def theta(lo, hi):
        return round(rng.uniform(lo, hi), 3)

    thetas = sorted(theta(0.1, 3.0) for _ in range(4))
    t_pdf, t_rel, t_sample, t_mom, t_ver = (theta(0.5, 2.0) for _ in range(5))
    sample_seed = rng.randrange(2**31)
    return [
        {"kind": "mttf", "thetas": thetas, "n": 5,
         "argv": ["mttf", "--theta", ",".join(map(str, thetas)), "--n", "5"]},
        {"kind": "pdf", "member": "ramawadh", "theta": t_pdf, "n": 50, "points": 101,
         "argv": ["pdf", "--dist", "ramawadh", "--theta", str(t_pdf), "--n", "50",
                  "--points", "101"]},
        {"kind": "reliability", "theta": t_rel, "n": 5, "points": 101,
         "argv": ["reliability", "--theta", str(t_rel), "--compare-exponential"]},
        {"kind": "sample", "member": "lindley", "theta": t_sample, "n": 5, "count": 10_000,
         "argv": ["sample", "--dist", "lindley", "--theta", str(t_sample), "--n", "5",
                  "--count", "10000", "--seed", str(sample_seed)]},
        {"kind": "moments", "member": "ramawadh", "theta": t_mom, "n": 5,
         "argv": ["moments", "--dist", "ramawadh", "--theta", str(t_mom), "--n", "5",
                  "--central"]},
        {"kind": "moments_verify", "member": "ramawadh", "theta": t_ver, "n": 5,
         "argv": ["moments", "--dist", "ramawadh", "--theta", str(t_ver), "--n", "5",
                  "--verify"]},
    ]


def start_worker(request: dict) -> dict:
    """Run bench/worker.py on one request and return its result."""
    # its own process group, so that a timeout also ends the CLI calls it runs
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py")], cwd=ROOT, start_new_session=True,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        stdout, stderr = proc.communicate(json.dumps(request), timeout=WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: {stderr[-2000:]}")
    return json.loads(stdout)


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu, "commit": git_commit(), "seed": seed,
            "threads": os.environ["OPENBLAS_NUM_THREADS"]}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        return (git / ref[5:]).read_text().strip() if ref.startswith("ref: ") else ref
    except OSError:
        return "unknown (not a git checkout)"


# ---- output checks --------------------------------------------------------

class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.edge_attempted = 0
        self.edge_failed = 0
        self.problems: list[str] = []

    def add(self, attempted: int, failed: int, problem: str | None = None, edge=False):
        self.attempted += attempted
        self.failed += failed
        if edge:
            self.edge_attempted += attempted
            self.edge_failed += failed
        elif failed and problem:
            self.problems.append(problem)


def check_digests(passes: list[dict], tally: Tally, per_pass: int) -> None:
    """A pass whose outputs differ from the first pass's fails entirely."""
    for i, p in enumerate(passes[1:], 1):
        if p["digest"] != passes[0]["digest"]:
            tally.add(0, per_pass, f"pass {i} outputs differ from pass 0")


def check_grid(inputs: dict, passes: list[dict], oracle, tally: Tally) -> None:
    first = passes[0]["outputs"]
    main_bad = scalar_bad = 0
    per_pass_main = 2 * len(inputs["main"])
    per_pass_scalar = 2 * sum(len(s["scalar"]) for s in inputs["main"])
    for spec, out, scalars in zip(inputs["main"], first["main"], first["scalar"]):
        o = oracle.SumOracle(spec["member"], spec["theta"], spec["n"])
        if out is None:
            main_bad += 2
            scalar_bad += 2 * len(spec["scalar"])
            continue
        main_bad += oracle.disagreements(out["pdf"], o.pdf(out["x"])) > 0
        main_bad += oracle.disagreements(out["survival"], o.survival(out["x"]), 1.0) > 0
        x = spec["scalar"]
        k = len(x)
        pdf_scale = float(o.pdf(out["x"]).max())
        scalar_bad += oracle.disagreements(scalars[:k], o.pdf(x), pdf_scale)
        scalar_bad += oracle.disagreements(scalars[k:], o.survival(x), 1.0)
    edge_bad = 0
    for spec, out in zip(inputs["edge"], first["edge"]):
        o = oracle.SumOracle(spec["member"], spec["theta"], spec["n"])
        for got, want, scale in ((out["pdf"], o.pdf, None), (out["survival"], o.survival, 1.0)):
            edge_bad += isinstance(got, str) or oracle.disagreements(
                got, want(out["x"]), scale) > 0
    n = len(passes)
    tally.add(n * per_pass_main, n * main_bad,
              f"grid: {main_bad} vector evaluations wrong or raising "
              f"({'; '.join(passes[0]['errors'])})")
    tally.add(n * per_pass_scalar, n * scalar_bad, f"grid: {scalar_bad} scalar calls disagree")
    tally.add(n * 2 * len(inputs["edge"]), n * edge_bad, edge=True)
    check_digests(passes, tally, per_pass_main + per_pass_scalar)


def check_cli(inputs: dict, passes: list[dict], oracle, tally: Tally) -> None:
    wrong = [oracle.check_cli_output(command, stdout)
             for command, stdout in zip(inputs["commands"], passes[0]["outputs"])]
    for p in passes:
        for call, problems in zip(p["calls"], wrong):
            if call["code"] != 0:
                problems = [f"{call['kind']} exited {call['code']}: {call['stderr']}"]
            tally.add(1, bool(problems), "; ".join(problems))
    check_digests(passes, tally, len(inputs["commands"]))


VERIFY_CHECKS = (
    ["mttf-reference/lindley", "mttf-reference/exponential", "dominance",
     "lindley-dual/tail", "lindley-dual/mttf"]
    + [f"{kind}/{m}" for m in VERIFY_MEMBERS
       for kind in ("convolution", "normalization", "moments", "moment-forms")]
    + [f"{kind}/{m}/n{n}" for m in VERIFY_MEMBERS for n in (2, 5)
       for kind in ("ks", "mc-moments")]
    + ["stability", "reductions/pdf", "reductions/weights"]
)


def check_verify(inputs: dict, passes: list[dict], oracle, tally: Tally) -> None:
    records = {r[0]: r for r in passes[0]["outputs"]}
    bad = 0
    for check_id in VERIFY_CHECKS:
        r = records.get(check_id)
        if r is None or r[1] != "pass" or not (r[2] is not None and r[2] <= r[3]):
            bad += 1
            tally.problems.append(f"verify: {check_id} did not pass: {r}")
    n = len(passes)
    tally.add(n * len(VERIFY_CHECKS), n * bad)
    check_digests(passes, tally, len(VERIFY_CHECKS))


CHECKS = {"cli": check_cli, "grid": check_grid, "verify": check_verify}


# ---- metrics --------------------------------------------------------------

def timings(workload: str, passes: list[dict], normalize: bool) -> tuple[float, list[float]]:
    """Pass time in s and call latencies in ms: a call is a CLI process
    (cli), a scalar pdf/survival call (grid) or one verify_all (verify); a pass
    is one rotation of the six commands (cli), the 10k-point vector slice
    (grid) or one verify_all.  With normalize, each is scaled by its probe
    (bench/probes.py)."""
    def scale(kind, probe_ms):
        return probes.NOMINAL_MS[kind] / probe_ms if normalize else 1.0

    if workload == "cli":
        by_kind: dict[str, list[float]] = {}
        for p in passes:
            for c in p["calls"]:
                by_kind.setdefault(c["kind"], []).append(
                    c["cpu_ms"] * scale("process", c["probe_ms"]))
        calls = [ms for v in by_kind.values() for ms in v]
        return sum(statistics.median(v) for v in by_kind.values()) / 1e3, calls
    if workload == "grid":
        calls = [ns / 1e6 * scale("scalar", p["probe_scalar_ms"])
                 for p in passes for ns in p["latencies_ns"]]
        return statistics.median(
            p["busy_s"] * scale("vector", p["probe_vector_ms"]) for p in passes), calls
    work = [p["cpu_s"] * scale("scalar", p["probe_scalar_ms"]) for p in passes]
    return statistics.median(work), [s * 1e3 for s in work]


def end_to_end(workload: str, passes: list[dict], setups: list[tuple[float, float]],
               rss_kb: int) -> dict:
    """The BENCHMARK.json end-to-end metrics."""
    pass_s, calls = timings(workload, passes, normalize=True)
    return {
        "setup_s": statistics.median(
            s * probes.NOMINAL_MS["process"] / probe for s, probe in setups),
        "pass_s": pass_s,
        "call_ms_p50": percentile(calls, 50),
        "call_ms_p75": percentile(calls, 75),
        "peak_rss_mb": rss_kb / 1024.0,
    }


def named_summary(workload: str, passes: list[dict], setups: list[tuple[float, float]],
                  e2e: dict, tally: Tally) -> dict:
    """The same numbers under workload-specific names, with the
    raw (not probe-scaled) times beside them."""
    raw_pass, raw_calls = timings(workload, passes, normalize=False)
    raw_setup = statistics.median(s for s, _ in setups)
    out = {"setup_s": (e2e["setup_s"], f"s ({len(setups)} set-ups; raw {raw_setup:.3f})"),
           "peak_rss_mb": (e2e["peak_rss_mb"], "MB"),
           "failed_frac": (tally.failed / tally.attempted, "1")}
    if workload == "cli":
        n = len(raw_calls)
        out["cli_call_ms_p50"] = (e2e["call_ms_p50"],
                                  f"ms ({n} calls; raw {percentile(raw_calls, 50):.1f})")
        out["cli_call_ms_p75"] = (e2e["call_ms_p75"],
                                  f"ms ({n} calls; raw {percentile(raw_calls, 75):.1f})")
    elif workload == "grid":
        points = 2 * GRID_POINTS * len(GRID_MEMBERS) * len(GRID_THETAS) * len(GRID_NS)
        _, calls = timings(workload, passes, normalize=True)
        n = len(calls)
        out["grid_mpoints_per_s"] = (points / e2e["pass_s"] / 1e6,
                                     f"Mpoints/s ({len(passes)} passes; "
                                     f"raw {points / raw_pass / 1e6:.3f})")
        for q in (50, 99):
            out[f"scalar_call_us_p{q}"] = (percentile(calls, q) * 1e3,
                                           f"us ({n} calls; raw {percentile(raw_calls, q) * 1e3:.2f})")
        out["edge_failed"] = (tally.edge_failed / len(passes),
                              f"of {tally.edge_attempted // len(passes)} per pass")
    else:
        out["verify_wall_s"] = (e2e["pass_s"], f"s ({len(passes)} passes; raw {raw_pass:.3f})")
    return out


def run_workload(workload: str, seed: int, seconds: int, trace: bool, oracle) -> tuple:
    inputs = make_inputs(workload, seed, oracle)
    OUT_DIR.mkdir(exist_ok=True)
    request = {
        "workload": workload, "root": str(ROOT), "inputs": inputs, "seconds": seconds,
        "min_passes": MIN_PASSES[workload], "trace": trace,
        "trace_dir": str(OUT_DIR),
        "spans_path": str(OUT_DIR / f"spans-{workload}-seed{seed}.json"),
        "cli_commands": cli_commands(random.Random(seed)),
    }
    setups = []  # (CPU seconds to the end of set-up, process probe in ms)
    count = 1 if trace else SETUP_SAMPLES
    for i in range(count):
        probe = probes.process_ms(str(ROOT))
        result = start_worker({**request, "setup_only": i < count - 1})
        setups.append((result["setup_cpu_s"], probe))

    passes = result["passes"]
    tally = Tally()
    tally.problems += [f"oracle: {p}" for p in oracle.self_check()]
    CHECKS[workload](inputs, passes, oracle, tally)
    if trace:
        CHECKS[workload](inputs, result["traced_passes"], oracle, tally)
    e2e = end_to_end(workload, passes, setups, result["peak_rss_kb"])
    metrics = result["layers"] if trace else e2e
    summary = named_summary(workload, passes, setups, e2e, tally)
    return tally, metrics, summary


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "lindsum" / "__init__.py").is_file():
        print(f"no lindsum package under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    import oracle

    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    env = environment(args.seed)
    print("env " + json.dumps(env))
    results = {}
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        tally, metrics, summary = run_workload(
            workload, args.seed, args.seconds, bool(args.trace), oracle)
        for name, (value, unit) in summary.items():
            print(f"{workload:7s} {name:22s} {value:.6g} {unit}")
        for problem in tally.problems:
            print(f"{workload:7s} problem: {problem}")
        if set(metrics) != set(units):
            raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json")
        results[workload] = {
            "correct": not tally.problems,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }
        record = {"env": env, "workload": workload, "trace": args.trace,
                  "seconds": args.seconds, "summary": summary, **results[workload],
                  "problems": tally.problems}
        (OUT_DIR / f"run-{workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=1))
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
