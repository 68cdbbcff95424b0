"""Run manifests: everything needed to re-run (or trust) a result.

A manifest records what produced an artifact: the seeds, the experiment
ids and scale, a stable hash of the run-shaping options, the package
version, and the platform.  It rides in the header of every metrics JSON
and trace JSONL the CLI writes, and in ``BENCH_substrate.json``, so a
number on disk is never orphaned from the configuration that made it.

Only ``created_at`` and the ``platform`` block vary between machines;
``config_hash`` covers exclusively the fields that decide simulation
outcomes, so two manifests with equal hashes describe the same logical
run.
"""

from __future__ import annotations

import hashlib
import platform as platform_module
import sys
import time
from typing import Any, Dict, Optional, Sequence

__all__ = ["MANIFEST_SCHEMA", "build_manifest", "config_hash"]

#: bumped when the manifest layout changes incompatibly.
MANIFEST_SCHEMA = 1


def config_hash(options: Dict[str, Any]) -> str:
    """A stable 16-hex-digit hash of run-shaping options."""
    payload = repr(sorted((str(k), repr(v)) for k, v in options.items()))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def build_manifest(
    master_seed: int,
    scale: str,
    experiments: Sequence[str],
    options: Optional[Dict[str, Any]] = None,
) -> dict:
    """Assemble the JSON-safe manifest for one CLI (or bench) invocation.

    ``options`` holds the run-shaping knobs beyond seed/scale (workers,
    fault plan, loss spec, spec fingerprint, …) as JSON values; they are
    recorded verbatim and folded into ``config_hash`` together with the
    seed, scale, and experiment ids.
    """
    from repro import __version__

    options = dict(options or {})
    hashed = dict(options)
    hashed["master_seed"] = master_seed
    hashed["scale"] = scale
    hashed["experiments"] = tuple(experiments)
    return {
        "schema": MANIFEST_SCHEMA,
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "master_seed": master_seed,
        "scale": scale,
        "experiments": list(experiments),
        "options": dict(sorted(options.items())),
        "config_hash": config_hash(hashed),
        "package_version": __version__,
        "platform": {
            "python": sys.version.split()[0],
            "implementation": platform_module.python_implementation(),
            "system": platform_module.system(),
            "machine": platform_module.machine(),
        },
    }
