"""One persisted-artifact format, and one way to replace a file.

Checkpoints, retrieval indexes, the training ``fit_state`` sidecar and
dataset snapshots are each an uncompressed ``.npz`` arrays file plus a
JSON manifest carrying ``format_version`` (when the format has one) and
``arrays_sha256``.
DESIGN.md §8 "Artifact format" states the write and read order.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple, Type

import numpy as np


def sha256_of(data: bytes) -> str:
    """Hex sha256 of an arrays file's bytes."""
    return hashlib.sha256(data).hexdigest()


@contextmanager
def replaced(path, mode: str = "w"):
    """Yield ``<path>.tmp`` open for writing; ``os.replace`` it over
    ``path`` when the block completes, remove it when the block raises.

    No fsync: a kill cannot tear ``path``, a power loss may.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, mode) as fh:
            yield fh
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, path)


@dataclass(frozen=True)
class ArtifactFormat:
    """One artifact kind; ``label`` names it in error messages and
    ``version=None`` means its manifest has no ``format_version``."""

    arrays_file: str
    manifest_file: str
    label: str
    error: Type[Exception]
    version: Optional[int] = None

    def write(self, directory, arrays: Dict[str, np.ndarray],
              meta: Dict[str, object]) -> Path:
        """Write ``arrays`` then the manifest into ``directory``."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        buffer = io.BytesIO()
        np.savez(buffer, **arrays)
        data = buffer.getvalue()
        with replaced(directory / self.arrays_file, "wb") as fh:
            fh.write(data)
        manifest = dict(meta, arrays_sha256=sha256_of(data))
        if self.version is not None:
            manifest["format_version"] = self.version
        with replaced(directory / self.manifest_file) as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
        return directory

    def read_manifest(self, directory) -> Dict[str, object]:
        """The parsed manifest, checked for presence and version only."""
        directory = Path(directory)
        path = directory / self.manifest_file
        if not path.is_file():
            raise self.error(f"no {self.label} at {directory} "
                             f"(missing {self.manifest_file})")
        try:
            with open(path) as fh:
                meta = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise self.error(
                f"unreadable {self.label} metadata {path}: {exc}") from exc
        version = meta.get("format_version")
        if version != self.version:
            raise self.error(
                f"{self.label} {directory} has format_version "
                f"{version!r}; this build reads version {self.version!r}")
        return meta

    def read(self, directory
             ) -> Tuple[Dict[str, object], Dict[str, np.ndarray]]:
        """``(manifest, arrays)``, or the kind's error for the first
        failed check: manifest, JSON, version, arrays file, checksum."""
        meta = self.read_manifest(directory)
        arrays_path = Path(directory) / self.arrays_file
        if not arrays_path.is_file():
            raise self.error(
                f"{self.label} {directory} is missing {self.arrays_file}")
        data = arrays_path.read_bytes()
        if sha256_of(data) != meta.get("arrays_sha256"):
            raise self.error(
                f"{self.label} {directory} is corrupted: "
                f"{self.arrays_file} checksum mismatch")
        with np.load(io.BytesIO(data)) as npz:
            arrays = {key: npz[key] for key in npz.files}
        return meta, arrays
