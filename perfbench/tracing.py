"""Wrapping of pointpipe's public functions from outside the package.

Two kinds of wrapper go around the same call sites:

* ``Capture`` keeps each call's arguments and result for the current item,
  so the checkers can test outputs that the public entry points do not
  return (NMS inputs and outputs, nearest-neighbour tables, RANSAC models).
  It runs in every run; it adds one Python frame per wrapped call, and
  keeps nothing until it is switched on after the warm-up round.
* ``Tracer`` records a span (name, start, end, parent) per call plus
  per-call counts.  It runs only in the traced run.

A function is rebound at every place the program looks it up: each
``pointpipe`` module attribute that holds the same object (for example
``classical.nms`` and ``evalsuite.nms``), or the class attribute for
methods.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

def _len0(a):
    return len(a) if hasattr(a, "__len__") else 0


def _nms_counts(args, result):
    return {"candidates": _len0(args[0]), "out": _len0(result)}


def _match_counts(args, result):
    return {"calls": 1, "distances": _len0(args[0]) * _len0(args[1])}


def _forward_pixels(args, result):
    x = args[1]
    return {"pixels": int(x.shape[0] * x.shape[2] * x.shape[3])}


def _adapt_warps(args, result):
    return {"warps": int(args[2].n_homographies)}


def _calls(args, result):
    return {"calls": 1}


# (layer name, module of definition, attribute path, counter); a counter maps
# (args, result) to a dict of counts for that call
TRACED = [
    ("synthdata.sample_at", "pointpipe.synthdata", "sample_at", None),
    ("synthdata.homographic_augment", "pointpipe.synthdata", "homographic_augment", None),
    ("geometry.warp_image", "pointpipe.geometry", "warp_image", _calls),
    ("imaging.bilinear_many", "pointpipe.imaging", "bilinear_many", None),
    ("imaging.bicubic_many", "pointpipe.imaging", "bicubic_many", None),
    ("neural.Conv2d.forward", "pointpipe.neural.ops", "Conv2d.forward", None),
    ("neural.Conv2d.backward", "pointpipe.neural.ops", "Conv2d.backward", _calls),
    ("neural.BatchNorm2d.forward", "pointpipe.neural.ops", "BatchNorm2d.forward", None),
    ("neural.BatchNorm2d.backward", "pointpipe.neural.ops", "BatchNorm2d.backward", None),
    ("neural.ReLU.forward", "pointpipe.neural.ops", "ReLU.forward", None),
    ("neural.ReLU.backward", "pointpipe.neural.ops", "ReLU.backward", None),
    ("neural.MaxPool2x2.forward", "pointpipe.neural.ops", "MaxPool2x2.forward", None),
    ("neural.MaxPool2x2.backward", "pointpipe.neural.ops", "MaxPool2x2.backward", None),
    ("neural.PointNet.forward", "pointpipe.neural.network", "PointNet.forward", _forward_pixels),
    ("neural.detector_decode", "pointpipe.neural.network", "detector_decode", None),
    ("neural.descriptor_sample", "pointpipe.neural.network", "descriptor_sample", None),
    ("neural.loss_detector", "pointpipe.neural.losses", "loss_detector", None),
    ("neural.loss_descriptor", "pointpipe.neural.losses", "loss_descriptor", None),
    ("neural.cells_from_points", "pointpipe.neural.losses", "cells_from_points", None),
    ("neural.adam_step", "pointpipe.neural.store", "adam_step", None),
    ("adaptation.adapt", "pointpipe.adaptation", "adapt", _adapt_warps),
    ("classical.nms", "pointpipe.classical", "nms", _nms_counts),
    ("classical.heatmap_to_points", "pointpipe.classical", "heatmap_to_points", None),
    ("classical.harris", "pointpipe.classical", "harris", None),
    ("classical.shi_tomasi", "pointpipe.classical", "shi_tomasi", None),
    ("classical.fast", "pointpipe.classical", "fast", None),
    ("evalsuite.match_nn", "pointpipe.evalsuite", "match_nn", _match_counts),
    ("evalsuite.estimate_homography", "pointpipe.evalsuite", "estimate_homography", _calls),
    ("evalsuite.repeatability", "pointpipe.evalsuite", "repeatability", None),
    ("evalsuite.nn_map", "pointpipe.evalsuite", "nn_map", None),
    ("evalsuite.matching_score", "pointpipe.evalsuite", "matching_score", None),
]

# functions whose outputs the checkers read
CAPTURED = {
    "classical.nms": ("pointpipe.classical", "nms"),
    "evalsuite.match_nn": ("pointpipe.evalsuite", "match_nn"),
    "evalsuite.estimate_homography": ("pointpipe.evalsuite", "estimate_homography"),
    "adaptation.adapt": ("pointpipe.adaptation", "adapt"),
}


def rebind(module_name: str, attr: str, make_wrapper) -> None:
    """Replace ``module.attr`` (or ``module.Class.method``) everywhere it is bound."""
    module = sys.modules[module_name]
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(module, cls_name)
        setattr(cls, meth, make_wrapper(cls.__dict__[meth]))
        return
    original = getattr(module, attr)
    wrapper = make_wrapper(original)
    for name, mod in list(sys.modules.items()):
        if name == "pointpipe" or name.startswith("pointpipe."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)


class Capture:
    """Per-item record of (args, result) for the checked functions."""

    def __init__(self):
        self.calls = defaultdict(list)
        self.on = False

    def install(self) -> None:
        for key, (module_name, attr) in CAPTURED.items():
            rebind(module_name, attr, lambda fn, key=key: self._wrap(key, fn))

    def _wrap(self, key, fn):
        calls = self.calls[key]

        def captured(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self.on:
                calls.append((args, result))
            return result

        return captured

    def take(self) -> dict:
        out = {k: list(v) for k, v in self.calls.items()}
        for v in self.calls.values():
            v.clear()
        return out


class Tracer:
    """In-memory spans with per-call counts; self time is computed at the end."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self.counts = defaultdict(float)  # "layer.count" -> total
        self.stack = []
        self.on = False

    def install(self) -> None:
        for name, module_name, attr, counter in TRACED:
            rebind(module_name, attr, lambda fn, name=name, counter=counter: self._wrap(name, fn, counter))

    def _wrap(self, name, fn, counter):
        spans, stack, counts, clock = self.spans, self.stack, self.counts, time.perf_counter

        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = clock()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
                if not ok:
                    counts[name + ".failed"] += 1
            if counter is not None:
                for k, v in counter(args, result).items():
                    counts[f"{name}.{k}"] += v
            return result

        return traced

    def self_ms(self) -> dict:
        """Total self time per span name, in ms, and top-level covered time."""
        child = [0.0] * len(self.spans)
        top = 0.0
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
            else:
                top += end - start
        totals = defaultdict(float)
        for i, (name, start, end, parent) in enumerate(self.spans):
            totals[name] += (end - start - child[i]) * 1e3
        return totals, top * 1e3

    def write(self, path) -> None:
        with open(path, "w") as f:
            for name, start, end, parent in self.spans:
                f.write(json.dumps([name, start, end, parent]) + "\n")
