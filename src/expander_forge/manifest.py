"""Result manifests: deterministic JSON bodies, content-hash persistence,
and a flat-file index mapping configurations to results.

The manifest body is a function of the configuration alone (given the code
version), so two runs with the same seed produce byte-identical bodies; the
wall-clock fields live in a separate header. Files are named by the body
hash and an index.json maps config hashes to result files, which is all the
experiment tracking a desk-scale study needs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

ARTIFACT_NAME = "expander-forge"
ARTIFACT_VERSION = "0.1.0"
SCHEMA_VERSION = 1
RESULTS_ENV = "EXPANDER_FORGE_RESULTS"


def jsonable(obj: Any) -> Any:
    """Recursively convert package values into JSON-stable primitives."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return float(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return [jsonable(x) for x in obj.tolist()]
    if isinstance(obj, (list, tuple)):
        return [jsonable(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    raise TypeError(f"cannot serialize {type(obj)!r}")


def canonical_json(data: Any) -> str:
    return json.dumps(jsonable(data), sort_keys=True, indent=2)


def config_hash(config: Dict[str, Any]) -> str:
    return hashlib.sha256(canonical_json(config).encode()).hexdigest()


@dataclass
class ResultManifest:
    command: str
    config: Dict[str, Any]
    results: Dict[str, Any]
    provenance: List[Dict[str, Any]] = field(default_factory=list)
    timestamp: str = ""
    duration_s: float = 0.0

    def body(self) -> Dict[str, Any]:
        return {
            "artifact": {
                "name": ARTIFACT_NAME,
                "version": ARTIFACT_VERSION,
                "schema": SCHEMA_VERSION,
            },
            "command": self.command,
            "config": jsonable(self.config),
            "results": jsonable(self.results),
            "provenance": jsonable(self.provenance),
        }

    def body_json(self) -> str:
        return canonical_json(self.body())

    def document(self) -> Dict[str, Any]:
        return {
            "header": {"timestamp": self.timestamp, "duration_s": self.duration_s},
            "body": self.body(),
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


def write_manifest(
    manifest: ResultManifest,
    results_dir: Optional[str] = None,
    out: Optional[str] = None,
) -> Path:
    """Persist the manifest under a body-hash filename and update the index.
    Optionally mirror the full document to `out`. Every file is replaced
    atomically."""
    directory = results_directory(results_dir)
    directory.mkdir(parents=True, exist_ok=True)
    body_json = manifest.body_json()
    digest = hashlib.sha256(body_json.encode()).hexdigest()[:16]
    path = directory / f"{manifest.command}-{digest}.json"
    doc_json = json.dumps(manifest.document(), sort_keys=True, indent=2)
    write_atomic(path, doc_json + "\n")

    index_path = directory / "index.json"
    index: Dict[str, Any] = {}
    if index_path.exists():
        index = json.loads(index_path.read_text())
    index[config_hash(manifest.config)] = {
        "command": manifest.command,
        "result": path.name,
    }
    write_atomic(index_path, json.dumps(index, sort_keys=True, indent=2) + "\n")

    if out:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        write_atomic(Path(out), doc_json + "\n")
    return path
