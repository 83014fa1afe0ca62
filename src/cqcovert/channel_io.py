"""JSON channel files: dim x dim matrices as nested arrays of [re, im] pairs.

Format (schema version "1"):

    {
      "schema_version": "1",
      "k": 2,
      "dims": {"dY": 2, "dZ": 2},
      "sigma": [ [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]], ... ],
      "rho":   [ ... k matrices of shape dZ x dZ ... ]
    }

Explicit [re, im] pairs keep files human-auditable and diffable.
"""

from __future__ import annotations

import json
import sys

import numpy as np

from .errors import ChannelFormatError

SCHEMA_VERSION = "1"


def pairs_to_matrix(obj, where: str) -> np.ndarray:
    """Nested [re, im] lists -> complex matrix, with shape checking."""
    try:
        arr = np.asarray(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ChannelFormatError(f"{where}: entries are not numeric [re, im] pairs") from exc
    if arr.ndim != 3 or arr.shape[2] != 2 or arr.shape[0] != arr.shape[1]:
        raise ChannelFormatError(
            f"{where}: expected a square matrix of [re, im] pairs, got shape {arr.shape}"
        )
    return arr[:, :, 0] + 1j * arr[:, :, 1]


def load_channel_data(source) -> dict:
    """Parse a channel file into raw matrices without numeric validation.

    ``source`` is a path, ``"-"`` for standard input, or an open stream.
    Returns ``{"k", "dY", "dZ", "sigma", "rho"}`` with lists of complex
    matrices.  Text that is not JSON and structural problems raise
    ChannelFormatError; a file that cannot be opened raises OSError; numeric
    validation is a separate step (channel.validate).
    """
    try:
        if source == "-":
            payload = json.load(sys.stdin)
        elif isinstance(source, (str, bytes)):
            with open(source) as fh:
                payload = json.load(fh)
        else:
            payload = json.load(source)
    except ValueError as exc:  # malformed JSON, or bytes that are not text
        raise ChannelFormatError(f"not a JSON document: {exc}") from exc

    if not isinstance(payload, dict):
        raise ChannelFormatError("the channel must be a JSON object")
    for key in ("k", "dims", "sigma", "rho"):
        if key not in payload:
            raise ChannelFormatError(f"missing required key {key!r}")
    k = payload["k"]
    dims = payload["dims"]
    if not isinstance(k, int) or k < 2:
        raise ChannelFormatError(f"k must be an integer >= 2, got {k!r}")
    if not isinstance(dims, dict):
        raise ChannelFormatError(f"dims must be an object, got {dims!r}")
    for side in ("sigma", "rho"):
        if not isinstance(payload[side], list):
            raise ChannelFormatError(f"{side} must be a list of matrices")
    for key in ("dY", "dZ"):
        if key not in dims or not isinstance(dims[key], int) or dims[key] < 1:
            raise ChannelFormatError(f"dims.{key} must be a positive integer")
    if len(payload["sigma"]) != k or len(payload["rho"]) != k:
        raise ChannelFormatError(
            f"expected {k} matrices per side, got {len(payload['sigma'])} sigma "
            f"and {len(payload['rho'])} rho"
        )

    sigma, rho = [], []
    for side, dim, store in (("sigma", dims["dY"], sigma), ("rho", dims["dZ"], rho)):
        for i, obj in enumerate(payload[side]):
            mat = pairs_to_matrix(obj, f"{side}[{i}]")
            if mat.shape[0] != dim:
                raise ChannelFormatError(
                    f"{side}[{i}] has dimension {mat.shape[0]}, expected {dim}"
                )
            store.append(mat)
    return {"k": k, "dY": dims["dY"], "dZ": dims["dZ"], "sigma": sigma, "rho": rho}
