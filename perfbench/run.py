#!/usr/bin/env python3
"""Benchmark of the quartic-galois CLI, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cli-session --seed 1 --seconds 30 --trace 0

The workload's inputs are generated from the seed (corpus.py), written
under perfbench/work/, and driven through `quartic_galois.cli.main`
in-process as a closed loop: one client, one CLI call at a time.  Every
answer is checked against its expectation by construction (gate.py).

With --trace 0 the run repeats whole passes over the workload for about
--seconds and reports the end-to-end metrics as medians over passes, its
times scaled to a fixed machine speed by reference chunks (clock.py).
With --trace 1 it makes one untraced pass, one traced pass (trace.py)
and one counting pass, and reports the per-layer metrics.  The last line
of standard output is one JSON object: correct, attempted, failed,
metrics.  See NOTES.md for the metric definitions and findings.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import clock  # noqa: E402
import corpus  # noqa: E402
import gate  # noqa: E402
import trace  # noqa: E402

SETUP_REPEATS = 5
TAIL_BEYOND = 10


def parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="a few inputs per workload (selfcheck.py)")
    p.add_argument("--plant-wrong", action="store_true",
                   help="corrupt one expectation (selfcheck.py)")
    return p.parse_args(argv)


def load_cli(src: Path):
    """Import the package from this checkout's src/, or exit non-zero."""
    if not (src / "quartic_galois" / "cli.py").is_file():
        sys.exit(f"run.py: no package at {src}; run from the root of a checkout")
    sys.path.insert(0, str(src))
    import quartic_galois.cli as cli
    if Path(cli.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"run.py: imported {cli.__file__}, not the checkout's package")
    return cli


def cache_clearers() -> List:
    """The package's lru caches, cleared before each pass so that no pass
    is served from an earlier one (a fresh CLI process starts cold)."""
    found = {}
    for mod in trace.package_modules():
        for value in vars(mod).values():
            if callable(getattr(value, "cache_clear", None)):
                found[id(value)] = value.cache_clear
    return list(found.values())


@dataclass
class Pass:
    latencies: List[float]       # raw CPU seconds per call, in op order
    scaled: List[float]          # the same at the reference speed (clock.py)
    walls: List[float]           # wall seconds per call, reference chunks included
    verdicts: List[gate.Verdict]

    @property
    def cpu_s(self) -> float:
        return sum(self.latencies)

    @property
    def run_s(self) -> float:
        return sum(self.scaled)


def run_pass(cli, ops: List[corpus.Op], clearers: List, sampled: bool = True) -> Pass:
    """One closed-loop pass over the ops; outputs are checked afterwards,
    outside the timed loop.  A sampled pass takes reference chunks
    (clock.py) and scales the times; an unsampled one, for the traced run,
    leaves them raw."""
    for clear in clearers:
        clear()
    ref = clock.SpeedReference()
    spans: List[Tuple[float, float]] = []
    walls: List[float] = []
    raw = []
    with ref if sampled else nullcontext():
        for op in ops:
            out, err = io.StringIO(), io.StringIO()
            w0, t0 = time.perf_counter(), clock.now()
            try:
                with redirect_stdout(out), redirect_stderr(err):
                    rc = cli.main(op.argv)
            except Exception:
                rc = None
                err.write(traceback.format_exc())
            spans.append((t0, clock.now()))
            walls.append(time.perf_counter() - w0)
            raw.append((rc, out.getvalue(), err.getvalue()))
    latencies = [ref.work(t0, t1) for t0, t1 in spans]
    scaled = ([w * ref.scale(t0, t1) for w, (t0, t1) in zip(latencies, spans)]
              if sampled else latencies)
    return Pass(latencies, scaled, walls, [gate.check(op, *r) for op, r in zip(ops, raw)])


def tail(latencies: Sequence[float]) -> Tuple[float, int]:
    """The highest whole percentile with at least TAIL_BEYOND ops beyond it
    (nearest rank).  A pass with fewer ops reports its slowest op (p100)."""
    xs = sorted(latencies)
    n = len(xs)
    pct = 100
    if n > TAIL_BEYOND:
        pct = next(p for p in range(99, 0, -1)
                   if n - math.ceil(p * n / 100) >= TAIL_BEYOND)
    return xs[max(math.ceil(pct * n / 100), 1) - 1], pct


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def setup_times(root: Path, src: Path, manifest: Path) -> Tuple[List[float], List[float]]:
    """CPU time of SETUP_REPEATS fresh set-ups, raw and at the reference
    speed, with reference chunks around each."""
    ref = clock.SpeedReference()
    raw, scaled = [], []
    ref.sample(clock.NEIGHBOURS)
    for _ in range(SETUP_REPEATS):
        t0, c0 = clock.now(), _children_cpu()
        proc = subprocess.Popen([sys.executable, str(HERE / "setup_probe.py"), str(src),
                                 str(manifest)], cwd=root, stdout=subprocess.DEVNULL)
        if proc.wait() != 0:
            sys.exit("run.py: the set-up probe failed")
        t1 = clock.now()
        ref.sample(clock.NEIGHBOURS)
        raw.append(_children_cpu() - c0)
        scaled.append(raw[-1] * ref.scale(t0, t1))
    return raw, scaled


def metadata(root: Path, src: Path, seed: int) -> Dict:
    try:
        # the ceiling keeps git from reading directories above the checkout
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                                capture_output=True, text=True,
                                timeout=10).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy
    lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                for p in sorted((src / "quartic_galois").glob("*.py")))
    return {"seed": seed, "commit": commit, "python": platform.python_version(),
            "numpy": numpy.__version__, "cpu": cpu, "nproc": os.cpu_count(),
            "src_lines": lines}


def quality(ops: List[corpus.Op], passes: List[Pass]) -> Tuple[float, float]:
    """proved_complete_ratio over finds on smooth surfaces, and point_recall."""
    finds = proved = found = expected = 0
    for p in passes:
        for op, v in zip(ops, p.verdicts):
            if op.kind == "find":
                finds += 1
                proved += v.completeness == gate.PROVED
                found += v.found
                expected += v.expected
    return proved / finds, found / expected


def print_rows(ops: List[corpus.Op], passes: List[Pass]) -> None:
    """Per-input rows, by label: median time over passes (scaled, raw CPU
    and wall), completeness, points."""
    for k, op in sorted(enumerate(ops), key=lambda ko: ko[1].label):
        if not op.row:
            continue
        v = passes[0].verdicts[k]
        t = statistics.median(p.scaled[k] for p in passes)
        t_raw = statistics.median(p.latencies[k] for p in passes)
        t_wall = statistics.median(p.walls[k] for p in passes)
        extra = f" {v.completeness} {v.found}/{v.expected} points" if op.kind == "find" else ""
        print(f"row  {op.label:<28} {t:9.3f} s (CPU {t_raw:.3f}, wall {t_wall:.3f}){extra}  {v.failure or 'ok'}")


def end_to_end(ops: List[corpus.Op], passes: List[Pass],
               setup: Tuple[List[float], List[float]]) -> Dict[str, Tuple[float, str]]:
    """CPU times at the reference speed (clock.py), medians over passes;
    the raw times go to info lines."""
    raw_setup, scaled_setup = setup
    tails = [tail(p.scaled) for p in passes]
    pcr, recall = quality(ops, passes)
    print(f"info setup_s runs: {', '.join(f'{s:.3f}' for s in scaled_setup)} "
          f"(raw {', '.join(f'{s:.3f}' for s in raw_setup)})")
    print(f"info passes: {len(passes)}, run_s per pass: "
          f"{', '.join(f'{p.run_s:.3f}' for p in passes)} "
          f"(raw CPU {', '.join(f'{p.cpu_s:.3f}' for p in passes)}; "
          f"wall {', '.join(f'{sum(p.walls):.3f}' for p in passes)})")
    print(f"info op_tail_ms is p{tails[0][1]} of {len(ops)} ops per pass")
    return {
        "setup_s": (statistics.median(scaled_setup), "s"),
        "run_s": (statistics.median(p.run_s for p in passes), "s"),
        "op_p50_ms": (1e3 * statistics.median(statistics.median(p.scaled) for p in passes), "ms"),
        "op_tail_ms": (1e3 * statistics.median(t for t, _ in tails), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "proved_complete_ratio": (pcr, "ratio"),
        "point_recall": (recall, "ratio"),
    }


def per_layer(t: trace.Tracer, counts, micro: Dict[str, float], traced_s: float,
              untraced_s: float) -> Dict[str, Tuple[float, str]]:
    c = t.calls
    full = c[trace.FULL_RANK]
    roots = c["univariate.gaussian_roots"]
    tests = c["galois.is_outer_galois_point"]
    m: Dict[str, Tuple[float, str]] = {}
    for layer in trace.LAYERS:
        m[f"{layer}.self_ms"] = (t.layer_ms(layer), "ms")
    m.update({
        "poly.parse_poly_ms": (t.ms("poly.parse_poly"), "ms"),
        "poly.substitute_linear_calls": (c["poly.substitute_linear"], "count"),
        "poly.substitute_linear_ms": (t.ms("poly.substitute_linear"), "ms"),
        "poly.partials_ms": (t.ms("poly.partials"), "ms"),
        "geometry.is_smooth_surface_calls": (c["geometry.is_smooth_surface"], "count"),
        "geometry.is_smooth_surface_ms": (t.ms("geometry.is_smooth_surface"), "ms"),
        "geometry.is_smooth_plane_quartic_ms": (t.ms("geometry.is_smooth_plane_quartic"), "ms"),
        "geometry.macaulay_rows_ms": (t.ms("geometry.macaulay_rows"), "ms"),
        "geometry.section_ms": (t.ms("geometry.section"), "ms"),
        "geometry.eigen_decompose_order4_ms": (t.ms("geometry.eigen_decompose_order4"), "ms"),
        "linalg.full_rank_calls": (full, "count"),
        "linalg.full_rank_ms": (t.ms(trace.FULL_RANK), "ms"),
        "linalg.exact_rank_calls": (t.exact_calls, "count"),
        "linalg.exact_rank_ms": (1e3 * t.exact_s, "ms"),
        "linalg.modular_hit_ratio": (t.modular_hits / full if full else 0.0, "ratio"),
        "linalg.sparse_rref_ms": (t.ms("linalg.sparse_rref"), "ms"),
        "linalg.matrix_ms": (t.ms(*(f"linalg.Matrix.{n}" for n in trace.MATRIX_METHODS)), "ms"),
        "solver.cube_locus_quadrics_ms": (t.ms("solver.cube_locus_quadrics"), "ms"),
        "solver.quadric_count": (t.quadrics, "count"),
        "solver.solve_projective_ms": (t.ms("solver.solve_projective"), "ms"),
        "solver.resultant_calls": (c["solver.resultant"], "count"),
        "solver.resultant_ms": (t.ms("solver.resultant"), "ms"),
        "solver.resultant_max_degree": (t.resultant_max_degree, "degree"),
        "univariate.gcd_calls": (c["univariate.gcd"], "count"),
        "univariate.gcd_ms": (t.ms("univariate.gcd"), "ms"),
        "univariate.gaussian_roots_calls": (roots, "count"),
        "univariate.gaussian_roots_ms": (t.ms("univariate.gaussian_roots"), "ms"),
        "univariate.split_ratio": (t.fully_split / roots if roots else 0.0, "ratio"),
        "galois.enumerate_self_ms": (t.ms("galois.enumerate_outer_galois_points"), "ms"),
        "galois.is_outer_galois_point_calls": (tests, "count"),
        "galois.galois_generator_calls": (c["galois.galois_generator"], "count"),
        "galois.verify_ms": (t.ms("galois.is_outer_galois_point", "galois.galois_generator"), "ms"),
        "galois.candidate_hit_ratio": (c["galois.galois_generator"] / tests if tests else 0.0,
                                       "ratio"),
        "galois.linear_auto_ms": (t.ms("galois.linear_auto"), "ms"),
        "k3.symplectic_character_ms": (t.ms("k3.symplectic_character"), "ms"),
        "k3.fixed_locus_ms": (t.ms("k3.fixed_locus"), "ms"),
        "k3.classify_ms": (t.ms("k3.classify", "k3.serialize_classification"), "ms"),
    })
    for op in ("mul", "add", "div"):
        m[f"gaussian.{op}_calls"] = (counts[op], "count")
        m[f"gaussian.{op}_ns"] = (micro[op], "ns")
    spans_ms = sum(t.layer_ms(layer) for layer in trace.LAYERS)
    m["trace.remainder_ms"] = (1e3 * traced_s - spans_ms, "ms")
    m["trace.run_s"] = (traced_s, "s")
    m["trace.untraced_run_s"] = (untraced_s, "s")
    m["trace.overhead_s"] = (traced_s - untraced_s, "s")
    print(f"info base: linalg.modular_hit_ratio = {t.modular_hits} of {full} "
          f"prove_full_column_rank calls; univariate.split_ratio = {t.fully_split} of {roots} "
          f"gaussian_roots calls; galois.candidate_hit_ratio = "
          f"{c['galois.galois_generator']} generators of {tests} is_outer_galois_point calls")
    print("info traced time by layer (self ms), with the remainder outside every span:")
    for layer in trace.LAYERS:
        print(f"info   {layer:<11} {t.layer_ms(layer):12.1f}")
    print(f"info   {'remainder':<11} {m['trace.remainder_ms'][0]:12.1f}")
    print(f"info   {'total':<11} {1e3 * traced_s:12.1f}  (= traced run_s)")
    return m


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    cli = load_cli(src)
    work = HERE / "work" / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    built = corpus.build(args.workload, args.seed, work, smoke=args.smoke)
    ops = built.ops
    if args.plant_wrong:
        planted = corpus.plant_wrong(ops)
        print(f"info planted a wrong expectation in: {planted.label if planted else 'nothing'}")
    clearers = cache_clearers()

    passes: List[Pass] = []
    if args.trace == 0:
        setup = setup_times(root, src, work / "manifest.json")
        t_start = time.perf_counter()
        while True:
            t_pass = time.perf_counter()
            passes.append(run_pass(cli, ops, clearers))
            t_end = time.perf_counter()
            if t_end - t_start + (t_end - t_pass) > args.seconds:
                break
        metrics = end_to_end(ops, passes, setup)
    else:
        passes.append(run_pass(cli, ops, clearers, sampled=False))
        tracer = trace.Tracer()
        tracer.install()
        try:
            passes.append(run_pass(cli, ops, clearers, sampled=False))
        finally:
            tracer.uninstall()
        counter = trace.OpCounter()
        counter.install()
        try:
            passes.append(run_pass(cli, ops, clearers, sampled=False))
        finally:
            counter.uninstall()
        micro = trace.microbench(built.coefficients)
        metrics = per_layer(tracer, counter.counts, micro, sum(passes[1].walls),
                            sum(passes[0].walls))

    print_rows(ops, passes)
    failures = [(op.label, v.failure) for p in passes
                for op, v in zip(ops, p.verdicts) if v.failure]
    for label, why in failures[:20]:
        print(f"FAIL {label}: {why}")
    attempted = len(ops) * len(passes)
    print(f"info failed_ratio = {len(failures)} of {attempted} ops")
    print("meta " + json.dumps(metadata(root, src, args.seed), sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
