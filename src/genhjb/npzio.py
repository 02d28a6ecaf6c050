"""Byte-stable artefact files: .npz archives and CSV tables.

``np.savez`` stamps the current time into the zip members, so two saves of
identical arrays differ.  Here the members are written with a fixed
timestamp and no compression, which makes the file a pure function of its
contents while staying loadable by ``np.load``.

Non-array metadata rides along as a JSON string stored under ``meta_json``.

CSV tables render every number with ``FLOAT_FMT``, 17 significant digits,
so floats round-trip bit-exactly and integers print as integers.  An
optional config hash goes in a leading ``# config_hash=`` comment.
"""
from __future__ import annotations

import json
import zipfile

import numpy as np

_EPOCH = (1980, 1, 1, 0, 0, 0)
FLOAT_FMT = "%.17g"


def save_arrays(path, arrays: dict, meta: dict | None = None) -> None:
    items = {str(k): np.asarray(v) for k, v in arrays.items()}
    if meta is not None:
        items["meta_json"] = np.array(json.dumps(meta, sort_keys=True))
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as zf:
        for name in sorted(items):
            # streamed into the archive, so no copy of the bytes is held;
            # zipfile must be told up front when a member may pass 2 GiB
            info = zipfile.ZipInfo(name + ".npy", date_time=_EPOCH)
            big = items[name].nbytes * 1.05 > zipfile.ZIP64_LIMIT
            with zf.open(info, "w", force_zip64=big) as fh:
                np.lib.format.write_array(fh, items[name], allow_pickle=False)


def load_arrays(path):
    """Returns (arrays, meta) where meta is None if the archive has none."""
    with np.load(path, allow_pickle=False) as data:
        out = {k: data[k] for k in data.files}
    meta = None
    if "meta_json" in out:
        meta = json.loads(out.pop("meta_json").item())
    return out, meta


def require_array(arrays: dict, name: str, shape: tuple, path) -> np.ndarray:
    """The archive member ``name``, checked against the expected shape.

    A None entry in ``shape`` matches any length.  A missing member or a
    wrong shape raises ValueError naming the member.
    """
    if name not in arrays:
        raise ValueError(f"{path} has no array {name!r}")
    a = arrays[name]
    if a.ndim != len(shape) or any(w is not None and w != h for w, h in zip(shape, a.shape)):
        want = "(" + ", ".join("*" if w is None else str(w) for w in shape) + ")"
        raise ValueError(f"{path}: array {name!r} has shape {a.shape}, expected {want}")
    return a


def require_meta(meta: dict, names, path) -> tuple:
    """The metadata values under ``names``, in order.

    A missing key raises ValueError naming it.
    """
    for name in names:
        if name not in meta:
            raise ValueError(f"{path} metadata has no {name!r}")
    return tuple(meta[name] for name in names)


def write_csv(path, header, rows, config_hash: str | None = None) -> None:
    """Write a header line and one line of numbers per row."""
    with open(path, "w", newline="") as fh:
        if config_hash is not None:
            fh.write(f"# config_hash={config_hash}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(FLOAT_FMT % v for v in row) + "\n")
