"""Scheme coefficient files: the JSON reader behind `schemes.load_scheme`.

Only a run given a scheme file reads one, and `load_scheme` imports this
module when called, so only such a run compiles it and loads `json`.
"""

from __future__ import annotations

import json

from .schemes import Scheme, SchemeError, SchemeFileError, Step


def _scheme_from_dict(obj: dict, where: str) -> Scheme:
    if not isinstance(obj, dict):
        raise SchemeFileError(f"{where}: expected a JSON object")
    for key in ("name", "order", "force_evals", "steps"):
        if key not in obj:
            raise SchemeFileError(f"{where}: missing required key {key!r}")
    if not isinstance(obj["steps"], list) or not obj["steps"]:
        raise SchemeFileError(f"{where}: steps must be a non-empty array")
    steps = []
    for i, item in enumerate(obj["steps"]):
        if not isinstance(item, dict):
            raise SchemeFileError(f"{where}: step {i}: expected an object")
        try:
            steps.append(Step(item.get("kind"), item.get("c"), item.get("u")))
        except SchemeError as exc:
            raise SchemeFileError(f"{where}: step {i}: {exc}") from exc
    try:
        return Scheme(obj["name"], steps, obj["order"], obj["force_evals"],
                      obj.get("citation", ""))
    except SchemeError as exc:
        raise SchemeFileError(f"{where}: {exc}") from exc


def read_scheme_file(path: str) -> Scheme:
    """The scheme in the JSON file at path, as `schemes.load_scheme` reads it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except FileNotFoundError as exc:
        raise SchemeFileError(f"scheme file not found: {path}") from exc
    except OSError as exc:
        raise SchemeFileError(f"cannot read scheme file {path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise SchemeFileError(f"{path}: invalid JSON: {exc}") from exc
    return _scheme_from_dict(obj, str(path))
