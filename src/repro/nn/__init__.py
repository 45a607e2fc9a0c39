"""From-scratch numpy autodiff and neural-network substrate.

Substitutes for the paper's PyTorch training setup (see DESIGN.md): a
tape-based :class:`Tensor`, conv/ring-conv layers, optimizers, losses and
a shared training loop.
"""

from . import backend
from .backend import (
    Backend,
    EinsumBackend,
    NumpyBackend,
    SplitBackend,
    available_backends,
    current_backend,
    get_backend,
    use_backend,
)
from .compile import (
    CompileError,
    ExecutionPlan,
    TraceError,
    Tracer,
    build_plan,
    model_stamp,
    traced_call,
)
from .data import ArrayDataset, DataLoader
from .fastconv import FastRingConv2d, frconv2d
from .functional import (
    avg_pool2d,
    conv2d,
    conv2d_grouped,
    pixel_shuffle,
    pixel_unshuffle,
    ring_expand,
)
from .gradcheck import check_gradients, numeric_gradient
from .inference import CompiledPredictor, Predictor, TilingPlan, plan_for_model
from .layers import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    DirectionalReLU2d,
    Flatten,
    GlobalAvgPool,
    Identity,
    LeakyReLU,
    Linear,
    PixelShuffle,
    PixelUnshuffle,
    ReLU,
    RingConv2d,
    Sequential,
    make_activation,
)
from .loss import charbonnier_loss, cross_entropy_loss, l1_loss, mse_loss
from .module import Module
from .optim import SGD, Adam, CosineLR, LRScheduler, Optimizer, StepLR, clip_grad_norm
from .tensor import Parameter, Tensor, as_tensor, concat, no_grad
from .trainer import TrainConfig, TrainResult, evaluate_mse, train_model

__all__ = [
    "backend",
    "Backend",
    "EinsumBackend",
    "NumpyBackend",
    "SplitBackend",
    "available_backends",
    "current_backend",
    "get_backend",
    "use_backend",
    "CompileError",
    "ExecutionPlan",
    "TraceError",
    "Tracer",
    "build_plan",
    "model_stamp",
    "traced_call",
    "ArrayDataset",
    "DataLoader",
    "FastRingConv2d",
    "frconv2d",
    "avg_pool2d",
    "conv2d",
    "conv2d_grouped",
    "pixel_shuffle",
    "pixel_unshuffle",
    "ring_expand",
    "check_gradients",
    "numeric_gradient",
    "CompiledPredictor",
    "Predictor",
    "TilingPlan",
    "plan_for_model",
    "AvgPool2d",
    "BatchNorm2d",
    "Conv2d",
    "DirectionalReLU2d",
    "Flatten",
    "GlobalAvgPool",
    "Identity",
    "LeakyReLU",
    "Linear",
    "PixelShuffle",
    "PixelUnshuffle",
    "ReLU",
    "RingConv2d",
    "Sequential",
    "make_activation",
    "charbonnier_loss",
    "cross_entropy_loss",
    "l1_loss",
    "mse_loss",
    "Module",
    "SGD",
    "Adam",
    "Optimizer",
    "LRScheduler",
    "CosineLR",
    "StepLR",
    "clip_grad_norm",
    "Parameter",
    "Tensor",
    "as_tensor",
    "concat",
    "no_grad",
    "TrainConfig",
    "TrainResult",
    "evaluate_mse",
    "train_model",
]
