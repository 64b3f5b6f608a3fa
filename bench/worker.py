"""The measured process of the benchmark.

Reads one request as JSON on stdin, sets up its workload, notes the CPU
time its set-up took, runs closed-loop passes of the workload for the
requested time and writes CPU timings, probe times and outputs as JSON on
stdout.  It imports only the standard library before `import lindsum`, so
the set-up time it reports is the package's own.  bench/run.py starts it,
checks its outputs against the oracle and turns its timings into metrics.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

import probes

CLI_TIMEOUT_S = 60


def _import_lindsum(root: str):
    import lindsum

    where = os.path.realpath(lindsum.__file__)
    if not where.startswith(os.path.join(root, "src") + os.sep):
        raise SystemExit(f"lindsum was imported from {where}, not from the checkout")
    return lindsum


def _evaluate(fn, x):
    """fn(x) as a list, or the error it raised."""
    try:
        return fn(x).tolist()
    except Exception as exc:  # the known defects of the edge slice
        return f"{type(exc).__name__}: {exc}"


class GridWorkload:
    """Fresh SumSpec per spec, vector pdf/survival on a grid, then scalar calls;
    an edge slice of specs with known defects is evaluated and reported apart."""

    def __init__(self, inputs, root):
        _import_lindsum(root)
        import numpy as np
        from lindsum import DistSpec, SumSpec, member_by_name

        self.np, self.DistSpec, self.SumSpec = np, DistSpec, SumSpec
        self.kernels = probes.Kernels()
        self.main = [self._prepare(s, member_by_name) for s in inputs["main"]]
        self.edge = [self._prepare(s, member_by_name) for s in inputs["edge"]]
        self.stride = inputs["check_stride"]

    def _prepare(self, spec, member_by_name):
        x = self.np.linspace(0.0, spec["hi"], spec["points"])
        return {**spec, "dist": member_by_name(spec["member"]), "x": x,
                "scalar": [float(v) for v in spec.get("scalar", ())]}

    def run_pass(self):
        clock = time.process_time_ns
        built, busy, main_out, errors = [], 0, [], []
        probe_vector = statistics.median(self.kernels.vector_ms() for _ in range(3))
        for spec in self.main:
            t0 = clock()
            try:
                s = self.SumSpec(self.DistSpec(spec["dist"], spec["theta"]), spec["n"])
                s.mixture()
                pdf, survival = s.pdf(spec["x"]), s.survival(spec["x"])
            except Exception as exc:  # counted as failed evaluations
                s = None
                errors.append(f"main {spec['member']} theta={spec['theta']} n={spec['n']}: "
                              f"{type(exc).__name__}: {exc}")
            busy += clock() - t0
            built.append(s)
            main_out.append(None if s is None else (pdf, survival))

        latencies, scalar_out = [], []
        probe_scalar = statistics.median(self.kernels.scalar_ms() for _ in range(5))
        for spec, s in zip(self.main, built):
            values = []
            for fn in (s.pdf, s.survival) if s is not None else ():
                for x in spec["scalar"]:
                    t0 = clock()
                    try:
                        v = fn(x)
                    except Exception:  # NaN never agrees with the oracle
                        v = math.nan
                    latencies.append(clock() - t0)
                    values.append(v)
            scalar_out.append(values)

        edge_out = []
        for spec in self.edge:
            try:
                s = self.SumSpec(self.DistSpec(spec["dist"], spec["theta"]), spec["n"])
            except Exception as exc:  # the known defects of the edge slice
                edge_out.append([f"{type(exc).__name__}: {exc}"] * 2)
                continue
            edge_out.append([_evaluate(s.pdf, spec["x"]), _evaluate(s.survival, spec["x"])])
        return {"busy_s": busy / 1e9, "latencies_ns": latencies, "errors": errors,
                "probe_vector_ms": probe_vector, "probe_scalar_ms": probe_scalar,
                "outputs": self._outputs(main_out, scalar_out, edge_out)}

    def _outputs(self, main_out, scalar_out, edge_out):
        np = self.np
        main = []
        for spec, out in zip(self.main, main_out):
            if out is None:
                main.append(None)
                continue
            idx = np.unique(np.r_[np.arange(0, spec["points"], self.stride), spec["points"] - 1])
            main.append({"x": spec["x"][idx].tolist(), "pdf": out[0][idx].tolist(),
                         "survival": out[1][idx].tolist()})
        edge = [{"x": spec["x"].tolist(), "pdf": pdf, "survival": survival}
                for spec, (pdf, survival) in zip(self.edge, edge_out)]
        return {"main": main, "scalar": [[float(v) for v in vals] for vals in scalar_out],
                "edge": edge}


class VerifyWorkload:
    """One in-process verify_all over the configured members per pass."""

    def __init__(self, inputs, root):
        lindsum = _import_lindsum(root)
        self.verify_all = lindsum.verify_all
        self.config = lindsum.VerifyConfig(members=tuple(inputs["members"]))
        self.kernels = probes.Kernels()

    def run_pass(self):
        cpu = time.process_time()
        with probes.ScalarSampler(self.kernels) as sampler:
            report = self.verify_all(self.config)
        cpu = time.process_time() - cpu - sampler.spent_s
        samples = sampler.samples or [self.kernels.scalar_ms()]
        records = [[r.check_id, r.status, r.value, r.bound, r.detail] for r in report.results]
        return {"cpu_s": cpu, "probe_scalar_ms": statistics.fmean(samples), "outputs": records}


class CliWorkload:
    """Sequential fresh-process calls of `python -m lindsum.cli`, one client."""

    def __init__(self, inputs, root, trace_dir=None):
        self.root = root
        self.commands = inputs["commands"]
        self.trace_dir = trace_dir
        self.traced = False
        self.pass_index = 0
        self.spans: list[list] = []
        # warm-up: compiles the package's bytecode, as any first call would
        self._call(["--help"])

    def _call(self, args, spans_path=None):
        if spans_path is None:
            argv = [sys.executable, "-m", "lindsum.cli", *args]
        else:
            argv = [sys.executable, os.path.join("bench", "spans.py"), spans_path, *args]
        cpu = probes.children_cpu_s()
        proc = subprocess.run(argv, cwd=self.root, capture_output=True,
                              text=True, timeout=CLI_TIMEOUT_S)
        return (probes.children_cpu_s() - cpu) * 1e3, proc

    def run_pass(self):
        calls, outputs = [], []
        for i, command in enumerate(self.commands):
            spans_path = None
            if self.traced:
                spans_path = os.path.join(self.trace_dir, f"cli-{os.getpid()}-{i}.json")
            probe = probes.process_ms(self.root)
            cpu_ms, proc = self._call(command["argv"], spans_path)
            calls.append({"kind": command["kind"], "cpu_ms": cpu_ms, "probe_ms": probe,
                          "code": proc.returncode, "stderr": proc.stderr[-500:]})
            outputs.append(proc.stdout)
            if spans_path is not None and os.path.exists(spans_path):
                self._merge_spans(spans_path)
        return {"calls": calls, "outputs": outputs}

    def _merge_spans(self, path):
        with open(path) as f:
            spans = json.load(f)["spans"]
        os.remove(path)
        offset = len(self.spans)
        for s in spans:
            s[3] = s[3] + offset if s[3] >= 0 else -1
            s[4] = self.pass_index
        self.spans.extend(spans)


def _measure(workload, seconds, min_passes, on_pass=None):
    """Closed loop: start passes until the time is used up, but never fewer
    than min_passes, and never one that would be predicted to end late.
    Each pass keeps a digest of its outputs; only the first keeps them all."""
    passes, walls = [], []
    start = time.perf_counter()
    while len(passes) < min_passes or (
        time.perf_counter() - start + statistics.median(walls) <= seconds
    ):
        if on_pass:
            on_pass(len(passes))
        t0 = time.perf_counter_ns()
        out = workload.run_pass()
        out["wall_s"] = (time.perf_counter_ns() - t0) / 1e9
        walls.append(out["wall_s"])
        outputs = out.pop("outputs")
        out["digest"] = hashlib.sha256(json.dumps(outputs).encode()).hexdigest()
        if not passes:
            out["outputs"] = outputs
        passes.append(out)
    return passes


def _cli_probe(root, commands, cli_passes):
    """cli.* layer numbers: bare interpreter, import (-X importtime) and one
    untraced call of each command when the workload made none."""
    def run(argv):
        cpu = probes.children_cpu_s()
        proc = subprocess.run([sys.executable, *argv], cwd=root, capture_output=True,
                              text=True, timeout=CLI_TIMEOUT_S)
        return (probes.children_cpu_s() - cpu) * 1e3, proc

    m = {"cli.interpreter_ms": statistics.median(run(["-c", "pass"])[0] for _ in range(3))}
    imports, scipy = [], []
    for _ in range(3):
        _, proc = run(["-X", "importtime", "-c", "import lindsum"])
        total = scipy_us = 0
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[0].startswith("import time:"):
                continue
            name = parts[2].strip()
            try:
                self_us, cumulative_us = int(parts[0].split(":")[1]), int(parts[1])
            except ValueError:
                continue
            if name == "lindsum":
                total = cumulative_us
            if name == "scipy" or name.startswith("scipy."):
                scipy_us += self_us
        imports.append(total / 1e3)
        scipy.append(scipy_us / 1e3)
    m["cli.import_ms"] = statistics.median(imports)
    m["cli.import_scipy_ms"] = statistics.median(scipy)
    by_kind: dict[str, list[float]] = {}
    for p in cli_passes:
        for c in p["calls"]:
            by_kind.setdefault(c["kind"], []).append(c["cpu_ms"])
    for command in commands:
        if command["kind"] not in by_kind:
            by_kind[command["kind"]] = [run(["-m", "lindsum.cli", *command["argv"]])[0]]
        m[f"cli.{command['kind']}_ms"] = statistics.median(by_kind[command["kind"]])
    return m


def _trace(workload, request, root):
    """Untraced passes, then traced passes; per-layer metrics from the spans."""
    import spans as spanlib

    name, seconds = request["workload"], request["seconds"]
    half = max(1, math.ceil(request["min_passes"] / 2))
    plain = _measure(workload, seconds / 2, half)
    if name == "cli":
        workload.traced = True
        recorder = None

        def on_pass(i):
            workload.pass_index = i
    else:
        recorder = spanlib.Recorder()
        recorder.install()

        def on_pass(i):
            recorder.pass_index = i
    try:
        traced = _measure(workload, seconds / 2, half, on_pass)
    finally:
        if recorder:
            recorder.uninstall()
    spans = workload.spans if recorder is None else recorder.spans
    metrics = spanlib.layer_metrics(spans, len(traced))
    covered = spanlib.covered_ns(spans)
    walls = [p["wall_s"] for p in traced]
    metrics["trace.overhead_s"] = statistics.median(walls) - statistics.median(
        p["wall_s"] for p in plain)
    metrics["trace.remainder_s"] = statistics.median(
        w - covered.get(i, 0) / 1e9 for i, w in enumerate(walls))
    metrics["trace.coverage"] = statistics.median(
        covered.get(i, 0) / 1e9 / w for i, w in enumerate(walls))
    metrics.update(_cli_probe(root, request["cli_commands"],
                              plain if name == "cli" else []))
    with open(request["spans_path"], "w") as f:
        json.dump({"workload": name, "spans": spans}, f)
    return plain, traced, metrics


def main() -> int:
    request = json.load(sys.stdin)
    root = request["root"]
    name = request["workload"]
    if name == "grid":
        workload = GridWorkload(request["inputs"], root)
    elif name == "verify":
        workload = VerifyWorkload(request["inputs"], root)
    else:
        workload = CliWorkload(request["inputs"], root, request.get("trace_dir"))
    # CPU time since the interpreter started, children included: the set-up
    result = {"setup_cpu_s": time.process_time() + probes.children_cpu_s()}
    if not request["setup_only"]:
        if request["trace"]:
            plain, traced, layers = _trace(workload, request, root)
            result.update(passes=plain, traced_passes=traced, layers=layers)
        else:
            result["passes"] = _measure(workload, request["seconds"], request["min_passes"])
        usage = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
        result["peak_rss_kb"] = resource.getrusage(usage).ru_maxrss
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
