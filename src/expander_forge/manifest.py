"""Result manifests: deterministic JSON bodies, content-hash persistence,
and a flat-file index mapping configurations to results.

The manifest body is a function of the configuration alone (given the code
version), so two runs with the same seed produce byte-identical bodies; the
wall-clock fields live in a separate header. Files are named by the body
hash and an index.json maps config hashes to result files, which is all the
experiment tracking a desk-scale study needs.

Both hashes are SHA-256 from CPython's built-in module (`_sha2` from 3.12,
`_sha256` before), with `hashlib` as the fallback, as CPython's own `random`
takes SHA-512: `hashlib` maps OpenSSL's libcrypto, 3.6 MiB of RSS, to hash a
few kilobytes per run. The digests are the same either way.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

from . import __version__

try:  # see the module docstring
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

ARTIFACT_NAME = "expander-forge"
SCHEMA_VERSION = 1
RESULTS_ENV = "EXPANDER_FORGE_RESULTS"


def jsonable(obj: Any) -> Any:
    """Recursively convert package values into JSON-stable primitives."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return float(obj)
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()  # builtins all the way down, in one call
    if isinstance(obj, (list, tuple)):
        return [jsonable(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    raise TypeError(f"cannot serialize {type(obj)!r}")


def canonical_json(data: Any) -> str:
    """The one rendering of JSON-stable data: sorted keys, two-space indent."""
    return json.dumps(data, sort_keys=True, indent=2)


@dataclass
class ResultManifest:
    command: str
    config: Dict[str, Any]
    results: Dict[str, Any]
    provenance: List[Dict[str, Any]] = field(default_factory=list)
    timestamp: str = ""
    duration_s: float = 0.0
    env: Dict[str, Any] = field(default_factory=dict)  # numpy version and BLAS threads

    def body(self) -> Dict[str, Any]:
        return {
            "artifact": {
                "name": ARTIFACT_NAME,
                "version": __version__,
                "schema": SCHEMA_VERSION,
            },
            "command": self.command,
            "config": jsonable(self.config),
            "results": jsonable(self.results),
            "provenance": jsonable(self.provenance),
        }

    def record(self, claim: str, operation: str, parameters: Dict[str, Any]) -> None:
        """Name the operation and parameters behind a numeric claim."""
        self.provenance.append(
            {"claim": claim, "operation": operation, "parameters": jsonable(parameters)}
        )


def results_directory(override: Optional[str] = None) -> Path:
    if override:
        return Path(override)
    env = os.environ.get(RESULTS_ENV)
    return Path(env) if env else Path("results")


def write_atomic(path: Path, text: str) -> None:
    """Write text to path through a per-process temporary file in the same
    directory and os.replace, so a reader (or a concurrent run) never sees a
    partial file."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_manifest(manifest: ResultManifest, body: Dict[str, Any],
                   results_dir: Optional[str] = None) -> Path:
    """Persist `body` (the manifest's `body()`) with the manifest's header
    under a body-hash filename, update the index, and return the file's
    path. Every file is replaced atomically."""
    directory = results_directory(results_dir)
    directory.mkdir(parents=True, exist_ok=True)
    body_json = canonical_json(body)
    digest = sha256(body_json.encode()).hexdigest()[:16]
    path = directory / f"{manifest.command}-{digest}.json"
    header = {"timestamp": manifest.timestamp, "duration_s": manifest.duration_s,
              "env": manifest.env}
    # canonical_json({"body": body, "header": header}) from the one rendering
    # of the body: a JSON text holds no raw newline, so nesting it one level
    # is two more spaces after each of its line breaks
    doc_json = '{\n  "body": %s,\n  "header": %s\n}\n' % (
        body_json.replace("\n", "\n  "), canonical_json(header).replace("\n", "\n  "))
    write_atomic(path, doc_json)

    index_path = directory / "index.json"
    index: Dict[str, Any] = {}
    if index_path.exists():
        index = json.loads(index_path.read_text())
        if not isinstance(index, dict):
            raise ValueError(f"{index_path} does not hold a JSON object")
    key = sha256(canonical_json(body["config"]).encode()).hexdigest()
    index[key] = {"command": manifest.command, "result": path.name}
    write_atomic(index_path, canonical_json(index) + "\n")
    return path
