"""relaxtik benchmark runner.

    python3 perfbench/run.py --workload grid-circle --seed 0 --seconds 30 --trace 0

Runs one workload in a closed loop with one client for `--seconds` seconds
of request time and checks every output.  With `--trace 0` it prints the
end-to-end metrics, with every time scaled to a nominal machine speed
measured by `reference.py`; with `--trace 1` it runs each input twice, once with
spans recorded around the calls into each layer and once with every hook
removed, and prints the per-layer metrics.  `--workload all` runs each workload in its own
process in turn.  The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; a copy with the environment
goes to `<out>/<workload>-seed<n>-trace<t>.json`, and traced runs also
write their spans there as CSV.  Input generation with `relaxtik.synth` and
the output checks are never timed.  See perfbench/README.md.
"""

import argparse
import gc
import importlib
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
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from reference import REF_NOMINAL_S, SpeedProbe, Timing, kernel  # noqa: E402
from spans import Hook, SpanRecorder  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "request_s_p50": "s",
    "request_s_tail": "s",
    "vertices_per_s": "1/s",
    "rmse": "1",
    "peak_mb": "MB",
}

PER_LAYER = {
    "admm.iterations": "count",
    "admm.iter_ms": "ms",
    "admm.primal_ms": "ms",
    "admm.block_self_ms": "ms",
    "admm.dual_ms": "ms",
    "admm.residual_ms": "ms",
    "admm.solve_self_ms": "ms",
    "smallsym.project_ms": "ms",
    "smallsym.eigh_ms": "ms",
    "smallsym.blocks_per_s": "1/s",
    "smallsym.bytes_per_iter": "bytes",
    "model.apply_Q_ms": "ms",
    "model.apply_Q_calls_per_iter": "count",
    "model.adjoint_Q_ms": "ms",
    "model.objective_K_calls": "count",
    "model.objective_K_ms": "ms",
    "graph.build_ms": "ms",
    "graph.degree_table_calls": "count",
    "manifold.rotation_to_quat_ms": "ms",
    "manifold.lift_signs_ms": "ms",
    "manifold.quat_to_rotation_ms": "ms",
    "manifold.lift_violations": "count",
    "fileio.read_ms": "ms",
    "fileio.write_ms": "ms",
    "fileio.bytes_written": "bytes",
    "cli.main_self_ms": "ms",
    "trace.overhead_pct": "%",
}

# Each function under the name its caller resolves it by.  The benchmark
# itself calls admm_solve, line_graph, grid_graph and cli.main through the
# module attributes, so those are hooked where it looks them up.
HOOKS = [
    Hook("relaxtik.admm.admm_solve", "admm.solve"),
    Hook("relaxtik.cli.admm_solve", "admm.solve"),
    Hook("relaxtik.admm.primal_update", "admm.primal"),
    Hook("relaxtik.admm.block_update", "admm.block"),
    Hook("relaxtik.admm.dual_update", "admm.dual"),
    Hook("relaxtik.admm.residual", "admm.residual"),
    Hook("relaxtik.admm.project_shifted_psd", "smallsym.project"),
    Hook("relaxtik.smallsym.eigh_small", "smallsym.eigh"),
    Hook("relaxtik.model.apply_Q", "model.apply_Q"),
    Hook("relaxtik.model.adjoint_Q", "model.adjoint_Q"),
    Hook("relaxtik.model.objective_K", "model.objective_K"),
    Hook("relaxtik.graph.line_graph", "graph.build"),
    Hook("relaxtik.graph.grid_graph", "graph.build"),
    Hook("relaxtik.cli.line_graph", "graph.build"),
    Hook("relaxtik.cli.grid_graph", "graph.build"),
    Hook("relaxtik.admm.degree_table", "graph.degree_table"),
    Hook("relaxtik.cli.rotation_to_quat", "manifold.rotation_to_quat"),
    Hook("relaxtik.cli.lift_signs", "manifold.lift_signs"),
    Hook("relaxtik.cli.quat_to_rotation", "manifold.quat_to_rotation"),
    Hook("relaxtik.fileio.read_rotations", "fileio.read"),
    Hook("relaxtik.fileio.write_report", "fileio.write"),
    # The CLI writes signal.csv and trace.csv with np.savetxt.
    Hook("numpy.savetxt", "fileio.write"),
    Hook("relaxtik.cli.main", "cli.main"),
]

SETUP_REPS = 15
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


class Runtime:
    """Attribute `x` is the module `relaxtik.x`, imported on first use.

    Looked up on every call, so requests always reach the current module
    objects and any wrapper the span recorder put on them."""

    def __getattr__(self, name):
        return importlib.import_module(f"relaxtik.{name}")


def _purge_relaxtik():
    for name in [m for m in sys.modules if m == "relaxtik" or m.startswith("relaxtik.")]:
        del sys.modules[name]


def timed_setup(workload, reps, probe):
    """Import relaxtik afresh and build the workload's reusable objects,
    `reps` times; returns the median time at nominal machine speed.  numpy
    is imported already."""
    times = []
    for _ in range(reps):
        _purge_relaxtik()
        gc.collect()  # free the purged modules now, not inside the timed import
        with probe.time() as t:
            for name in workload.imports:
                importlib.import_module(name)
            workload.setup(Runtime())
        times.append(t.scaled)
    return statistics.median(times)


@contextmanager
def _wall_clock():
    t = Timing()
    t0 = time.perf_counter()
    yield t
    t.wall = time.perf_counter() - t0


def one_request(workload, i, recorder=None, probe=None):
    """Make input i, time the request, check the output.

    Returns (wall seconds, seconds at nominal machine speed or None without
    a `probe`, Outcome or None)."""
    inp = workload.make_input(i)
    timer = probe.time if probe else _wall_clock
    t0, scaled, outcome = time.perf_counter(), None, None
    try:
        with recorder.request(i) if recorder else nullcontext():
            with timer() as t:
                out = workload.request(inp)
        dt, scaled = t.wall, t.scaled
        outcome = workload.check(inp, out)
    except Exception:  # a failed request is counted, and the loop goes on
        traceback.print_exc()
        dt = time.perf_counter() - t0
    if outcome is None or not outcome.ok:
        reason = "raised" if outcome is None else outcome.reason
        print(f"request {i} failed: {reason}", file=sys.stderr)
        outcome = None
    return dt, scaled, outcome


def run_pass(workload, seconds, probe):
    """Closed loop from input 0 until the timed request wall seconds reach
    `seconds`.  Returns the request times at nominal machine speed, and the
    wall times."""
    samples, walls, outcomes, failed = [], [], [], 0
    i, spent = 0, 0.0
    while spent < seconds:
        dt, scaled, outcome = one_request(workload, i, probe=probe)
        spent += dt
        if outcome is None:
            failed += 1
        else:
            samples.append(scaled)
            walls.append(dt)
            outcomes.append(outcome)
        i += 1
    return samples, walls, outcomes, i, failed


def run_traced_pass(workload, seconds, recorder):
    """Each input twice, once traced and once with every hook restored, in
    alternating order so that drift in machine speed hits both alike."""
    traced, untraced, outcomes, failed = [], [], [], 0
    i, spent = 0, 0.0
    while spent < seconds:
        for traced_run in ((True, False) if i % 2 == 0 else (False, True)):
            if traced_run:
                recorder.install()
                try:
                    dt, _, outcome = one_request(workload, i, recorder)
                finally:
                    recorder.restore()
            else:
                dt, _, outcome = one_request(workload, i)
            spent += dt
            if outcome is None:
                failed += 1
            elif traced_run:
                traced.append(dt)
                outcomes.append(outcome)
            else:
                untraced.append(dt)
        i += 1
    return traced, untraced, outcomes, i, failed


def tail(samples):
    """Value at the highest percentile with at least ten samples beyond it;
    the maximum when fewer than 20 samples leave no such percentile above
    the median.  Returns (value, label)."""
    s = sorted(samples)
    n = len(s)
    if n >= 20:
        return s[n - 11], f"p{100.0 * (n - 10) / n:.1f}"
    return s[-1], "max"


def end_to_end(setup_s, samples, walls, outcomes, probe):
    """Timings are at nominal machine speed; the wall-clock figures and the
    machine's measured slowdown go in the details."""
    tail_s, label = tail(samples)
    metrics = {
        "setup_s": setup_s,
        "request_s_p50": statistics.median(samples),
        "request_s_tail": tail_s,
        "vertices_per_s": sum(o.vertices for o in outcomes) / sum(samples),
        "rmse": statistics.median(o.rmse for o in outcomes),
        "peak_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    details = {
        "requests": len(samples),
        "request_s_tail_percentile": label,
        "wall_request_s_p50": statistics.median(walls),
        "wall_request_s_tail": tail(walls)[0],
        "wall_vertices_per_s": sum(o.vertices for o in outcomes) / sum(walls),
        "machine_slowdown": statistics.median(probe.times) / REF_NOMINAL_S,
        "reference_calls": len(probe.times),
    }
    return metrics, details


def per_layer(recorder, request_ids, outcomes, traced_p50, untraced_p50):
    tot = recorder.totals(request_ids)

    def count(name):
        return tot.get(name, (0, 0.0, 0.0))[0]

    def total_ms(name):
        return 1e3 * tot.get(name, (0, 0.0, 0.0))[1]

    def self_ms(name):
        return 1e3 * tot.get(name, (0, 0.0, 0.0))[2]

    n_req = len(outcomes)
    iters = sum(o.iterations for o in outcomes)
    blocks = sum(o.edges * o.iterations for o in outcomes)
    builds = recorder.totals(list(request_ids) + ["setup"]).get("graph.build", (0, 0.0, 0.0))
    project_ms = total_ms("smallsym.project")
    return {
        "admm.iterations": iters / n_req,
        "admm.iter_ms": total_ms("admm.solve") / iters,
        "admm.primal_ms": self_ms("admm.primal") / iters,
        "admm.block_self_ms": self_ms("admm.block") / iters,
        "admm.dual_ms": self_ms("admm.dual") / iters,
        "admm.residual_ms": total_ms("admm.residual") / iters,
        "admm.solve_self_ms": self_ms("admm.solve") / iters,
        "smallsym.project_ms": project_ms / iters,
        "smallsym.eigh_ms": total_ms("smallsym.eigh") / iters,
        "smallsym.blocks_per_s": 1e3 * blocks / project_ms if project_ms > 0 else 0.0,
        # Computed, not measured: M k^2 doubles read and written per iteration.
        "smallsym.bytes_per_iter":
            sum(2 * 8 * o.edges * o.block ** 2 * o.iterations for o in outcomes) / iters,
        "model.apply_Q_ms": total_ms("model.apply_Q") / iters,
        "model.apply_Q_calls_per_iter": count("model.apply_Q") / iters,
        "model.adjoint_Q_ms": total_ms("model.adjoint_Q") / iters,
        "model.objective_K_calls": count("model.objective_K") / n_req,
        "model.objective_K_ms": total_ms("model.objective_K") / n_req,
        "graph.build_ms": 1e3 * builds[1] / builds[0] if builds[0] else 0.0,
        "graph.degree_table_calls": count("graph.degree_table") / n_req,
        "manifold.rotation_to_quat_ms": total_ms("manifold.rotation_to_quat") / n_req,
        "manifold.lift_signs_ms": total_ms("manifold.lift_signs") / n_req,
        "manifold.quat_to_rotation_ms": total_ms("manifold.quat_to_rotation") / n_req,
        "manifold.lift_violations": sum(o.lift_violations for o in outcomes) / n_req,
        "fileio.read_ms": total_ms("fileio.read") / n_req,
        "fileio.write_ms": total_ms("fileio.write") / n_req,
        "fileio.bytes_written": sum(o.bytes_written for o in outcomes) / n_req,
        "cli.main_self_ms": self_ms("cli.main") / n_req,
        "trace.overhead_pct": 100.0 * (traced_p50 - untraced_p50) / untraced_p50,
    }


def _blas():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        return "unknown"
    return {k: blas.get(k) for k in ("name", "version", "openblas configuration") if k in blas}


def _git_commit():
    """HEAD of the checkout read from .git, or "unknown" outside a repository."""
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
    return "unknown"


def environment(seed):
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
        "git_commit": _git_commit(),
        "seed": seed,
    }


def run_workload(args, out_dir):
    workdir = out_dir / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, args.smoke, str(workdir))
        probe = SpeedProbe()
        for _ in range(20):  # let the kernel's lazy set-up happen untimed
            kernel()
        reps = 1 if args.trace else 2 if args.smoke else SETUP_REPS
        setup_s = timed_setup(workload, reps, probe)
        src = Path(sys.modules["relaxtik"].__file__).resolve()
        if SRC.resolve() not in src.parents:
            raise ImportError(f"relaxtik was imported from {src}, not from {SRC}")
        warm = workload.make_input(0)
        workload.check(warm, workload.request(warm))
        if not args.trace:
            samples, walls, outcomes, attempted, failed = run_pass(
                workload, args.seconds, probe)
            if not samples:
                raise RuntimeError("no request succeeded")
            metrics, details = end_to_end(setup_s, samples, walls, outcomes, probe)
            units = END_TO_END
        else:
            recorder = SpanRecorder(HOOKS)
            recorder.install()
            try:
                with recorder.request("setup"):
                    workload.setup(Runtime())
            finally:
                recorder.restore()
            traced, untraced, outcomes, n_inputs, failed = run_traced_pass(
                workload, args.seconds, recorder)
            if not (traced and untraced):
                raise RuntimeError("no request succeeded")
            attempted = 2 * n_inputs
            metrics = per_layer(recorder, range(n_inputs), outcomes,
                                statistics.median(traced), statistics.median(untraced))
            units = PER_LAYER
            details = {"hooks": recorder.status, "traced_requests": len(traced),
                       "untraced_requests": len(untraced)}
            recorder.write_csv(out_dir / f"{args.workload}-seed{args.seed}-spans.csv")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "smoke": args.smoke, "environment": environment(args.seed),
              "details": details, **result}
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    for k, v in metrics.items():
        print(f"{args.workload} {k}: {v:.6g} {units[k]}")
    print(f"{args.workload} fail_rate: {failed / attempted:.6g} ({failed}/{attempted} requests)")
    print("details: " + json.dumps(details))
    print("environment: " + json.dumps(record["environment"]))
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload in its own process, so peak memory is per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", str(args.out)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            status = proc.returncode or 1
            continue
        res = json.loads(lines[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    if status:
        return status
    print(json.dumps(merged))
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=str(ROOT / ".bench_out"),
                   help="directory for result records, spans and scratch files")
    p.add_argument("--smoke", action="store_true", help="tiny sizes, same code path")
    args = p.parse_args(argv)
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if not (SRC / "relaxtik" / "__init__.py").is_file():
        print(f"error: no relaxtik sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    return run_workload(args, out_dir)


if __name__ == "__main__":
    sys.exit(main())
