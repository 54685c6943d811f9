"""``repro.nn`` — a compact NumPy deep-learning framework.

This substrate replaces PyTorch for the reproduction: a reverse-mode
autograd :class:`~repro.nn.tensor.Tensor`, layer modules, optimizers and
serialization.  Public surface mirrors familiar ``torch``/``torch.nn`` names.
"""

from repro.nn import functional, init, random
from repro.nn.autograd import enable_grad, is_grad_enabled, no_grad
from repro.nn.gradcheck import gradcheck, numerical_gradient
from repro.nn.modules import (
    GELU,
    GRU,
    AnomalyAttention,
    BatchNorm1d,
    Bilinear,
    Conv1d,
    ConvTranspose1d,
    Dropout,
    GRUCell,
    LayerNorm,
    LeakyReLU,
    Linear,
    LSTMCell,
    Module,
    ModuleList,
    MultiheadSelfAttention,
    PositionalEncoding,
    ReLU,
    Sequential,
    Sigmoid,
    Softplus,
    Tanh,
    TransformerEncoderLayer,
)
from repro.nn.optim import SGD, Adam, AdamW, Optimizer, clip_grad_norm
from repro.nn.serialization import load_module, load_state, save_module, save_state
from repro.nn.tensor import (
    Parameter,
    Tensor,
    arange,
    concatenate,
    full,
    maximum,
    minimum,
    odd_power,
    odd_root,
    ones,
    pad1d,
    stack,
    tensor,
    where,
    zeros,
)

__all__ = [
    # tensor
    "Tensor", "Parameter", "tensor", "zeros", "ones", "full", "arange",
    "concatenate", "stack", "where", "maximum", "minimum", "odd_power",
    "odd_root", "pad1d",
    # autograd
    "no_grad", "enable_grad", "is_grad_enabled", "gradcheck",
    "numerical_gradient",
    # modules
    "Module", "Sequential", "ModuleList", "Linear", "Bilinear", "Conv1d",
    "ConvTranspose1d", "Dropout", "LayerNorm", "BatchNorm1d", "ReLU",
    "LeakyReLU", "Tanh", "Sigmoid", "GELU", "Softplus", "GRU", "GRUCell",
    "LSTMCell", "MultiheadSelfAttention", "AnomalyAttention",
    "PositionalEncoding",
    "TransformerEncoderLayer",
    # optim
    "Optimizer", "SGD", "Adam", "AdamW", "clip_grad_norm",
    # io
    "save_state", "load_state", "save_module", "load_module",
    # submodules
    "functional", "init", "random",
]
