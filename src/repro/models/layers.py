"""Numpy building blocks for the transformer substrate.

Everything operates on float64 internally (the FP16 activation
behaviour relevant to the paper lives in the hardware model, not
here); shapes follow the ``(batch, seq, features)`` convention.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "linear",
    "rms_norm",
    "layer_norm",
    "softmax",
    "gelu",
    "silu",
    "rope_cache",
    "apply_rope",
    "causal_attention",
]


def linear(x: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """``x @ weight.T`` — weight stored ``(out_features, in_features)``."""
    return x @ weight.T


def rms_norm(x: np.ndarray, gain: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Root-mean-square layer normalization (Llama-family norm)."""
    rms = np.sqrt(np.mean(x**2, axis=-1, keepdims=True) + eps)
    return x / rms * gain


def layer_norm(x: np.ndarray, gain: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Standard layer norm with unit bias-free affine gain."""
    mu = np.mean(x, axis=-1, keepdims=True)
    var = np.var(x, axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gain


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax."""
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def gelu(x: np.ndarray) -> np.ndarray:
    """Tanh-approximated GELU (GPT/OPT/Phi activation)."""
    return 0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * x**3)))


def silu(x: np.ndarray) -> np.ndarray:
    """SiLU / swish (Llama activation)."""
    return x / (1.0 + np.exp(-x))


def rope_cache(seq_len: int, head_dim: int, base: float = 10000.0):
    """Precompute RoPE cos/sin tables of shape ``(seq_len, head_dim/2)``."""
    if head_dim % 2:
        raise ValueError("RoPE needs an even head dimension")
    inv_freq = base ** (-np.arange(0, head_dim, 2) / head_dim)
    angles = np.outer(np.arange(seq_len), inv_freq)
    return np.cos(angles), np.sin(angles)


def apply_rope(x: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """Rotary position embedding.

    ``x`` has shape ``(batch, heads, seq, head_dim)``; cos/sin are the
    tables from :func:`rope_cache` for the same sequence length.
    """
    x1 = x[..., 0::2]
    x2 = x[..., 1::2]
    out = np.empty_like(x)
    out[..., 0::2] = x1 * cos - x2 * sin
    out[..., 1::2] = x1 * sin + x2 * cos
    return out


def causal_attention(
    q: np.ndarray, k: np.ndarray, v: np.ndarray, past_len: int = 0
) -> np.ndarray:
    """Scaled dot-product attention with a causal mask.

    All of ``q, k, v`` have shape ``(batch, heads, seq, head_dim)``
    (key/value heads already broadcast to the query head count).

    With ``past_len > 0`` the keys/values cover ``past_len`` cached
    positions followed by the new ones, while ``q`` covers only the
    new positions: query ``i`` may attend to keys ``<= past_len + i``.
    """
    head_dim = q.shape[-1]
    scores = q @ np.swapaxes(k, -1, -2) / np.sqrt(head_dim)
    q_len, kv_len = q.shape[-2], k.shape[-2]
    if kv_len > past_len + 1:
        # Only then is some key ahead of some query.  (A one-token
        # decode sees its whole cache; adding an all-zero mask would
        # change nothing.)
        scores = scores + np.triu(np.full((q_len, kv_len), -np.inf), k=1 + past_len)
    probs = softmax(scores, axis=-1)
    return probs @ v
