"""Deterministic output writers: CSV data products and the JSON run report.

Floats are serialized with repr (shortest round-trip form) so identical
runs produce byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ContactFlowError


class OutputError(ContactFlowError, OSError):
    pass


def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> str:
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc}") from exc
    return path


def sha256_of(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _jsonable(obj):
    if isinstance(obj, Mapping):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, float) and (np.isnan(obj) or np.isinf(obj)):
        return repr(obj)
    return obj


def write_report(path: str, report: Mapping) -> str:
    try:
        with open(path, "w", newline="\n") as fh:
            json.dump(_jsonable(report), fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc}") from exc
    return path


def strip_rows(strip) -> tuple[list[str], list[list]]:
    """CSV header and rows for a propagated strip."""
    axes = strip.surface.chart.axis_names
    header = (["tau"] + [f"x_{a}" for a in axes] + ["s"]
              + [f"p_{a}" for a in axes] + ["p_s", "g_residual"])
    return header, np.column_stack([strip.taus, strip.x, strip.s, strip.p, strip.p_s,
                                    strip.g_residual]).tolist()


def ensure_dir(path: str) -> str:
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise OutputError(f"cannot create output directory {path}: {exc}") from exc
    return path
