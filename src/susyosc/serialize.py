"""Canonical document emission for the command-line artifacts.

JSON is written by the standard library's json.dumps: keys sorted,
two-space indentation, a trailing newline, and each float spelled by repr,
the shortest string that parses back to the same value. Parsing a document
and printing it again reproduces the bytes exactly. A loaded system
document doubles as its own corruption check: the system is rebuilt from
the stored spec and its document must equal the loaded one by value, so a
file written with another float spelling (17 digits, say) still loads.

CSV files get a header row and the same float spelling; masked values
travel as nan there, while JSON documents must stay finite.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np

from .errors import UsageError
from .specfun import _is_whole
from .susy import SystemSpec, SusySystem, build_system

SCHEMA_VERSION = 1


def _plain(value):
    """json.dumps hook: numpy scalars and arrays become Python values."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    for kind, cast in ((np.bool_, bool), (np.integer, int), (np.floating, float)):
        if isinstance(value, kind):
            return cast(value)
    raise UsageError("cannot serialize %r into a JSON document" % (type(value).__name__,))


def canonical_json(doc: dict) -> str:
    """Deterministic JSON text of a plain dict/list/scalar document."""
    try:
        return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False, default=_plain) + "\n"
    except (TypeError, ValueError) as exc:
        raise UsageError("cannot write a JSON document: %s" % exc)


def _write_text(path: str, text: str):
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError("cannot write %s: %s" % (path, exc))


def write_json(path: str, doc: dict):
    _write_text(path, canonical_json(doc))


def load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise UsageError("cannot read %s: %s" % (path, exc))
    except json.JSONDecodeError as exc:
        raise UsageError("%s is not valid JSON: %s" % (path, exc))


def write_csv(path: str, header, columns):
    """Columns of equal length, header first; nan is allowed in CSV.

    Cells are spelled as in the JSON documents: integers as integers, every
    other value as the repr of its float."""
    columns = [np.atleast_1d(np.asarray(c)) for c in columns]
    if any(c.size != columns[0].size for c in columns):
        raise UsageError("CSV columns must share one length")
    cells = [c.tolist() if c.dtype.kind in "iu" else c.astype(float).tolist() for c in columns]
    lines = [",".join(header)] + [",".join(map(repr, row)) for row in zip(*cells)]
    _write_text(path, "\n".join(lines) + "\n")


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
        "spec": dataclasses.asdict(spec),
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

    Returns (system, document). The spec is validated first (k, n_points
    and n_max must be JSON integers, not floats or booleans; SystemSpec
    refuses by name an eps_top, nu, x_min or x_max that is not a finite
    number), the system is rebuilt deterministically, and its document must
    equal the loaded one by value; anything else is reported as corruption.
    """
    doc = load_json(path)
    if not isinstance(doc, dict) or doc.get("kind") != "susy_system":
        raise UsageError("%s does not hold a system document" % path)
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise UsageError("unsupported schema_version %r in %s"
                         % (doc.get("schema_version"), path))
    try:
        raw = dict(doc["spec"])
        fields = {f.name: raw.pop(f.name) for f in dataclasses.fields(SystemSpec)}
        sizes = {"k": fields["k"], "n_points": fields["n_points"], "n_max": doc["n_max"]}
        for name, value in sizes.items():
            if not _is_whole(value):
                raise ValueError("%s must be an integer, got %r" % (name, value))
        spec = SystemSpec(**fields)
        if raw:
            raise UsageError("unknown spec fields %s in %s" % (sorted(raw), path))
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError("malformed system document %s: %s" % (path, exc))
    system = build_system(spec, n_max=sizes["n_max"])
    if system_document(system) != doc:
        raise UsageError(
            "%s does not match the system rebuilt from its spec; the file "
            "is corrupted or was written by a different build" % path)
    return system, doc
