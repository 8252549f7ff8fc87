"""Train the benchmark's fixture weights with pointpipe's own training functions.

    python3 perfbench/make_fixtures.py

Writes ``fixtures/detector.spw`` (micro MagicPoint) and ``fixtures/joint.spw``
(micro detector + descriptor started from it), and their SHA-256 sums in
``fixtures/SHA256SUMS``.  The files are committed, so a parent commit and a
change read the same bytes.

Training length decides whether the benchmark can run at all.  On 240x320
composites the micro detector's responses fall below the 0.015 threshold
almost everywhere between 150 and 300 pretraining steps (measured: 1200-1800
points per composite at 150 steps, 0-45 at 200, 0-1 at 300), so the
detector stops at 100 steps and the joint model adds 50 joint steps.  The
command then labels every ``label`` image and matches every ``match`` pair
of benchmark seeds 0-2 and fails unless each image gets points and each
pair reaches an estimate.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from pointpipe import synthdata as sd  # noqa: E402
from pointpipe.neural import (  # noqa: E402
    ARCH_PRESETS,
    TrainConfig,
    load_weights,
    save_weights,
    train_magicpoint,
    train_superpoint,
)

import workloads  # noqa: E402

DETECTOR_SEED, DETECTOR_STEPS = 11, 100
JOINT_SEED, JOINT_STEPS, JOINT_IMAGES = 21, 50, 64
CHECK_SEEDS = (0, 1, 2)


def train_fixtures() -> None:
    arch = ARCH_PRESETS["micro"]
    size = workloads.TRAIN_SIZE
    detector = train_magicpoint(
        arch, sd.StreamConfig(size, size, seed=DETECTOR_SEED),
        TrainConfig(iterations=DETECTOR_STEPS, seed=DETECTOR_SEED),
    )
    save_weights(workloads.DETECTOR_WEIGHTS, detector.store)
    stream = sd.StreamConfig(size, size, seed=JOINT_SEED)
    dataset = [(s.image, s.points) for s in (sd.sample_at(stream, i) for i in range(JOINT_IMAGES))]
    joint = train_superpoint(
        load_weights(workloads.DETECTOR_WEIGHTS), arch, dataset,
        TrainConfig(iterations=JOINT_STEPS, batch_size=workloads.JOINT_PAIRS, seed=JOINT_SEED),
    )
    save_weights(workloads.JOINT_WEIGHTS, joint.store)


def check_seed(seed: int) -> list:
    """Labels from every ``label`` image and an estimate for every ``match`` pair."""
    problems = []
    label = workloads.Label(seed)
    for i in range(len(label.images)):
        unit = label.run(i)
        print(f"seed {seed} label image {i}: {len(unit.output)} points", flush=True)
        if unit.failed:
            problems.append(f"seed {seed}: label image {i} gets no points")
    match = workloads.Match(seed)
    for i in range(len(match.pairs)):
        unit = match.run(i)
        _, report = unit.output
        print(f"seed {seed} match pair {i}: corner error {report.rows[0][3]:.3f}", flush=True)
        if unit.failed:
            problems.append(f"seed {seed}: match pair {i} reaches no estimate")
    return problems


def main() -> int:
    os.makedirs(workloads.FIXTURES, exist_ok=True)
    train_fixtures()
    lines = []
    for path in (workloads.DETECTOR_WEIGHTS, workloads.JOINT_WEIGHTS):
        with open(path, "rb") as f:
            lines.append(f"{hashlib.sha256(f.read()).hexdigest()}  {os.path.basename(path)}\n")
    print("".join(lines), end="")
    with open(os.path.join(workloads.FIXTURES, "SHA256SUMS"), "w") as f:
        f.writelines(lines)
    problems = [msg for seed in CHECK_SEEDS for msg in check_seed(seed)]
    for msg in problems:
        print("FAIL", msg, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
