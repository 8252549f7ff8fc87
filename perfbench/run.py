"""pointpipe benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload {train,label,match,detect} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds reference figures (per-item quartiles, reference-kernel time and the
rate scaled by it, run metadata, output digest).  The exit code is 1 when a
check fails.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread in this process and its set-up probes; set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60
REF_REPEATS = 5
# the reference line's scaled rate is for a host on which the reference kernel takes this long
REF_NOMINAL_MS = 25.0

# per-layer metrics: name -> (source, unit); source "ms" is self time per item
PER_LAYER = {
    **{f"{n}.ms": ("ms", "ms") for n in (
        "synthdata.sample_at", "synthdata.homographic_augment",
        "neural.Conv2d.forward", "neural.Conv2d.backward",
        "neural.BatchNorm2d.forward", "neural.BatchNorm2d.backward",
        "neural.ReLU.forward", "neural.ReLU.backward",
        "neural.MaxPool2x2.forward", "neural.MaxPool2x2.backward",
        "neural.PointNet.forward", "neural.loss_detector", "neural.loss_descriptor",
        "neural.cells_from_points", "neural.adam_step", "neural.detector_decode",
        "neural.descriptor_sample",
        "geometry.warp_image", "imaging.bilinear_many", "imaging.bicubic_many",
        "adaptation.adapt",
        "classical.nms", "classical.heatmap_to_points",
        "classical.harris", "classical.shi_tomasi", "classical.fast",
        "evalsuite.match_nn", "evalsuite.estimate_homography", "evalsuite.repeatability",
        "evalsuite.nn_map", "evalsuite.matching_score",
    )},
    "neural.PointNet.forward.pixels": ("count", "count"),
    "geometry.warp_image.calls": ("count", "count"),
    "adaptation.adapt.warps": ("count", "count"),
    "classical.nms.candidates": ("count", "count"),
    "classical.nms.out_per_in": ("ratio", "ratio"),
    "evalsuite.match_nn.calls": ("count", "count"),
    "evalsuite.match_nn.distances": ("count", "count"),
    "evalsuite.estimate_homography.calls": ("count", "count"),
    "evalsuite.estimate_homography.failed": ("count", "count"),
    "untraced.ms": ("untraced", "ms"),
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("train", "label", "match", "detect"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set the workload up, print 'ready' and exit (times set-up)")
    return p.parse_args(argv)


def setup_probe(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter until the workload is set up."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed),
           "--setup-probe"]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        _, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode}): {err.strip()[-500:]}")
    return ready


def reference_kernel_ms(repeats: int) -> list:
    """Times of a fixed mix of BLAS, elementwise and interpreted work, in ms.

    The mix is a third of each, like the workloads: im2col GEMMs, array
    arithmetic and gathers, and Python loops (greedy NMS, RANSAC).
    """
    import numpy as np

    rng = np.random.default_rng(12345)
    a = rng.random((256, 256))
    img = rng.random((240, 320)).astype(np.float32)
    idx = rng.integers(0, img.size, 50_000)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(10):
            b = a @ a
            a = b / np.abs(b).max()
        for _ in range(40):
            np.sqrt(np.abs(np.diff(img, axis=0)))[::2, ::2].sum()
            img.ravel()[idx].sum()
        total = 0.0
        for i in range(80_000):
            total += i * 0.5
        times.append((time.perf_counter() - start) * 1e3)
    return times


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3 if values else [0.0] * 3
    return statistics.quantiles(values, n=4)


def run_metadata() -> dict:
    import numpy as np

    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), "")
    except OSError:
        pass
    blas = {}
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": cfg.get("name"), "version": cfg.get("version")}
    except Exception:  # numpy without a dict-mode config report
        pass
    return {
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"], "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu,
    }


def main(argv=None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    if args.setup_probe:
        import workloads

        workloads.WORKLOADS[args.workload](args.seed)
        print("ready", flush=True)
        return 0

    setup_samples = [setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]

    import tracing
    import workloads

    capture = tracing.Capture()
    capture.install()
    tracer = tracing.Tracer()
    if args.trace:
        tracer.install()
    wl = workloads.WORKLOADS[args.workload](args.seed)

    errors, failures = [], []
    attempted = failed = 0
    digest = hashlib.sha256()

    # warm-up: one round, untimed, unchecked and not captured, so the peak
    # read after it is the program's own: set-up plus one pass over the inputs
    for index in range(wl.units_per_round):
        wl.run(index, **wl.warmup_kwargs)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    capture.on = True

    def run_unit(index):
        nonlocal attempted, failed
        capture.take()
        tracer.on = bool(args.trace)
        start = time.perf_counter()
        try:
            unit = wl.run(index)
        except Exception as exc:  # a failing operation is counted, not fatal
            failures.append(f"unit {index}: {type(exc).__name__}: {exc}")
            unit = None
        finally:
            elapsed = time.perf_counter() - start
            tracer.on = False
        if unit is None:
            attempted += wl.items_per_unit
            failed += wl.items_per_unit
            return None, elapsed
        attempted += unit.items
        failed += unit.failed
        if unit.failed:
            failures.append(f"unit {index}: {unit.failed} item(s) gave no result")
        else:
            wl.check(unit, capture.take())
            errors.extend(f"unit {index}: {e}" for e in unit.errors)
            digest.update(unit.output)
        return unit, elapsed

    # the host's speed drifts; a reference kernel after every unit records it
    ref_ms = reference_kernel_ms(REF_REPEATS)
    item_s, timed, units = [], 0.0, 0
    while True:
        unit, elapsed = run_unit(units)
        timed += elapsed
        units += 1
        if unit is not None:
            item_s.extend(unit.item_s)
        ref_ms.extend(reference_kernel_ms(1))
        # stop on the round boundary nearest to --seconds
        rounds, partial = divmod(units, wl.units_per_round)
        if not partial and timed + 0.5 * timed / rounds >= args.seconds:
            break
    ref_ms.extend(reference_kernel_ms(REF_REPEATS))
    items = len(item_s)
    rate = items / timed
    errors.extend(wl.final_check())

    if args.trace:
        expected = wl.expected_counts(units)
        for name, want in expected.items():
            got = tracer.counts.get(name, 0)
            if got != want:
                errors.append(f"traced {name} = {got:g}, structure gives {want:g}")
        self_ms, top_ms = tracer.self_ms()
        metrics = {}
        for name, (source, unit_name) in PER_LAYER.items():
            if source == "ms":
                value = self_ms.get(name[: -len(".ms")], 0.0) / max(items, 1)
            elif source == "count":
                value = tracer.counts.get(name, 0.0) / max(items, 1)
            elif source == "ratio":
                cand = tracer.counts.get("classical.nms.candidates", 0.0)
                value = tracer.counts.get("classical.nms.out", 0.0) / cand if cand else 0.0
            else:
                value = (timed * 1e3 - top_ms) / max(items, 1)
            metrics[name] = {"value": value, "unit": unit_name}
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write(os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    else:
        metrics = {
            "items_per_s": {"value": rate, "unit": "1/s"},
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    ms = [s * 1e3 for s in item_s]
    q1, med, q3 = quartiles(ms)
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "items": items, "units": units, "timed_s": timed, "wall_s": time.perf_counter() - started,
        "item_ms": {"median": med, "q1": q1, "q3": q3},
        "setup_s_samples": setup_samples,
        "ref_kernel_ms": dict(zip(("q1", "median", "q3"), quartiles(ref_ms)), samples=len(ref_ms)),
        "items_per_s": rate,
        "items_per_s_at_ref": rate * statistics.median(ref_ms) / REF_NOMINAL_MS,
        "output_sha256": digest.hexdigest(),
        "errors": errors[:20],
        "failures": failures[:20],
        "meta": run_metadata(),
    }
    if len(ms) >= 40:
        # the highest percentile with at least ten samples beyond it
        pct = int(100 * (1 - 10 / len(ms)))
        info["item_ms"][f"p{pct}"] = statistics.quantiles(ms, n=100)[pct - 1]
    print(json.dumps(info))
    correct = not errors
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
