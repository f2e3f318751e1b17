"""Canonical document emission for the command-line artifacts.

JSON is written by a small deterministic printer: keys sorted, floats with
17 significant digits, two-space indentation. Parsing a document and
printing it again reproduces the bytes exactly, which is what the
build/load round-trip contract relies on; it also doubles as the
corruption check, because a loaded system document must reproduce its own
canonical form after the system is rebuilt from the stored spec.

CSV files get a header row and the same float formatting; masked values
travel as nan there, while JSON documents must stay finite.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import UsageError
from .susy import SystemSpec, SusySystem, build_system

SCHEMA_VERSION = 1


def format_float(value: float, allow_nonfinite: bool = False) -> str:
    value = float(value)
    if not math.isfinite(value):
        if allow_nonfinite:
            return "nan" if math.isnan(value) else ("inf" if value > 0 else "-inf")
        raise UsageError("non-finite float cannot enter a JSON document")
    return "%.17g" % value


def _canonical(value, indent: int, pieces: list):
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            pieces.append("{}")
            return
        pieces.append("{\n")
        for i, key in enumerate(sorted(value)):
            if not isinstance(key, str):
                raise UsageError("JSON document keys must be strings, got %r" % (key,))
            pieces.append(pad + "  " + json.dumps(key) + ": ")
            _canonical(value[key], indent + 1, pieces)
            pieces.append(",\n" if i < len(value) - 1 else "\n")
        pieces.append(pad + "}")
    elif isinstance(value, (list, tuple, np.ndarray)):
        items = list(value)
        if not items:
            pieces.append("[]")
            return
        pieces.append("[\n")
        for i, item in enumerate(items):
            pieces.append(pad + "  ")
            _canonical(item, indent + 1, pieces)
            pieces.append(",\n" if i < len(items) - 1 else "\n")
        pieces.append(pad + "]")
    elif isinstance(value, bool) or isinstance(value, np.bool_):
        pieces.append("true" if value else "false")
    elif value is None:
        pieces.append("null")
    elif isinstance(value, (int, np.integer)):
        pieces.append(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        pieces.append(format_float(value))
    elif isinstance(value, str):
        pieces.append(json.dumps(value))
    else:
        raise UsageError("cannot serialize %r into a JSON document" % (type(value).__name__,))


def canonical_json(doc: dict) -> str:
    """Deterministic JSON text of a plain dict/list/scalar document."""
    pieces = []
    _canonical(doc, 0, pieces)
    pieces.append("\n")
    return "".join(pieces)


def write_json(path: str, doc: dict):
    with open(path, "w") as fh:
        fh.write(canonical_json(doc))


def load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise UsageError("cannot read %s: %s" % (path, exc))
    except json.JSONDecodeError as exc:
        raise UsageError("%s is not valid JSON: %s" % (path, exc))


def write_csv(path: str, header, columns):
    """Columns of equal length, header first; nan is allowed in CSV."""
    columns = [np.atleast_1d(np.asarray(c)) for c in columns]
    n = columns[0].size
    if any(c.size != n for c in columns):
        raise UsageError("CSV columns must share one length")
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(n):
            fh.write(",".join(format_float(c[i], allow_nonfinite=True)
                              for c in columns) + "\n")


# ----------------------------------------------------------------------
# System documents
# ----------------------------------------------------------------------

def system_document(system: SusySystem) -> dict:
    """Self-describing snapshot of a built system.

    The stored check values are recomputed on load and compared bit for
    bit, so any hand edit of the file (or a drifted rebuild) is caught.
    """
    spec = system.spec
    states = system.all_states
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "susy_system",
        "spec": {
            "k": spec.k,
            "eps_top": spec.eps_top,
            "nu": spec.nu,
            "x_min": spec.x_min,
            "x_max": spec.x_max,
            "n_points": spec.n_points,
        },
        "n_max": system.n_max,
        "derived": {
            "eps0": spec.eps0,
            "e_gap": spec.e_gap,
            "energies_new": [st.energy for st in system.new_states],
            "energies_iso_head": [st.energy for st in system.iso_states[:8]],
        },
        "checks": {
            "orthonormality_max_dev": system.orthonormality_deviation(),
            "residual_max": max(system.residual(st) for st in states),
            "norm_agreement_iso": [st.norm_agreement for st in system.iso_states],
            "residual_check_new": [st.residual_check for st in system.new_states],
        },
    }


def load_system(path: str):
    """Rebuild the system a document describes, verifying the document.

    Returns (system, document). The spec is validated first, the system is
    rebuilt deterministically, and the rebuilt document must reproduce the
    loaded one byte for byte; anything else is reported as corruption.
    """
    doc = load_json(path)
    if doc.get("kind") != "susy_system":
        raise UsageError("%s does not hold a system document" % path)
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise UsageError("unsupported schema_version %r in %s"
                         % (doc.get("schema_version"), path))
    try:
        raw = dict(doc["spec"])
        spec = SystemSpec(k=int(raw.pop("k")), eps_top=float(raw.pop("eps_top")),
                          nu=float(raw.pop("nu")), x_min=float(raw.pop("x_min")),
                          x_max=float(raw.pop("x_max")), n_points=int(raw.pop("n_points")))
        if raw:
            raise UsageError("unknown spec fields %s in %s" % (sorted(raw), path))
        n_max = int(doc["n_max"])
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError("malformed system document %s: %s" % (path, exc))
    system = build_system(spec, n_max=n_max)
    if canonical_json(system_document(system)) != canonical_json(doc):
        raise UsageError(
            "%s does not match the system rebuilt from its spec; the file "
            "is corrupted or was written by a different build" % path)
    return system, doc
