from .store import MissingGradient, Param, ParamStore, adam_step, load_weights, save_weights
from .network import (
    ARCH_PRESETS,
    ArchConfig,
    DimensionNotDivisible,
    EmptyDescriptorMap,
    PointNet,
    depth_to_space,
    descriptor_sample,
    detector_decode,
    infer_arch,
    normalize_descriptors,
)
from .losses import (
    LossConfig,
    cells_from_points,
    correspondences,
    loss_descriptor,
    loss_detector,
)
from .training import EmptyDataset, TrainConfig, train_magicpoint, train_superpoint

__all__ = [
    "ARCH_PRESETS",
    "ArchConfig",
    "DimensionNotDivisible",
    "EmptyDataset",
    "EmptyDescriptorMap",
    "LossConfig",
    "MissingGradient",
    "Param",
    "ParamStore",
    "PointNet",
    "TrainConfig",
    "adam_step",
    "cells_from_points",
    "correspondences",
    "depth_to_space",
    "descriptor_sample",
    "detector_decode",
    "infer_arch",
    "load_weights",
    "loss_descriptor",
    "loss_detector",
    "normalize_descriptors",
    "save_weights",
    "train_magicpoint",
    "train_superpoint",
]
