"""Trained-model container and its on-disk format.

Layout: an ASCII prologue followed by a binary payload.

    MKLSP1\n
    created=<iso timestamp>\n
    checksum=<sha256 hex of the payload>\n
    \n
    <payload>

The payload is a sequence of length-prefixed blocks (u64 little endian):
meta JSON, template text, mu, then one alphabet block and one weight block
per feature group.  The checksum covers the payload only, so two runs that
learn identical parameters produce byte-identical payloads regardless of
when they were written.  `Model.read` raises ModelFormatError unless mu is
a point of the simplex and every weight block is finite and sized for its
group, so every model that loads can decode.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import BinaryIO

import numpy as np

from .corpus import LabelTable
from .dependency import DependencyTask, EdgeFeatureExtractor, parse_edge_templates
from .sequence import SequenceTask
from .templates import OBSERVATION, FeatureAlphabet, parse_templates

MAGIC = "MKLSP1"
_MU_SUM_TOL = 1e-9  # trained mu sums to 1 within a few ulps

# meta key -> (JSON type, required); list values hold strings only
_META_FIELDS = {
    "task": (str, True),
    "n_columns": (int, True),
    "groups": (list, True),
    "labels": (list, True),
    "decoder": (str, False),
    "single_root": (bool, False),
    "diagnostics": (dict, False),
}


class ModelFormatError(ValueError):
    """Raised for unreadable, truncated, or corrupted model files."""


@dataclass
class Model:
    task_kind: str  # "seq" or "dep"
    template_text: str
    n_columns: int
    group_ids: list[str]
    labels: list[str]
    alphabets: list[list[str]]
    mu: np.ndarray
    weights: list[np.ndarray]
    decoder: str = "projective"
    single_root: bool = False
    diagnostics: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if self.task_kind not in ("seq", "dep"):
            raise ValueError(f"unknown task kind {self.task_kind!r}")
        if not (len(self.group_ids) == len(self.alphabets) == len(self.weights)):
            raise ValueError("group ids, alphabets, and weights must align")
        if self.mu.size != len(self.group_ids):
            raise ValueError("one mu entry per group required")

    @classmethod
    def from_sequence(
        cls,
        task: SequenceTask,
        template_text: str,
        n_columns: int,
        mu: np.ndarray,
        weights: list[np.ndarray],
        diagnostics: dict[str, str] | None = None,
    ) -> "Model":
        alphabets = [a.strings() for a in task.alphabets]
        if task.transition:
            alphabets.append([])  # the transition group interns nothing
        return cls(
            "seq",
            template_text,
            n_columns,
            list(task.group_ids),
            list(task.labels.labels()),
            alphabets,
            mu,
            weights,
            diagnostics=dict(diagnostics or {}),
        )

    @classmethod
    def from_dependency(
        cls,
        task: DependencyTask,
        template_text: str,
        mu: np.ndarray,
        weights: list[np.ndarray],
        diagnostics: dict[str, str] | None = None,
    ) -> "Model":
        return cls(
            "dep",
            template_text,
            10,
            list(task.group_ids),
            [],
            [a.strings() for a in task.extractor.alphabets],
            mu,
            weights,
            decoder=task.decoder,
            single_root=task.single_root,
            diagnostics=dict(diagnostics or {}),
        )

    def build_task(self):
        """Reconstruct the decoding task with frozen alphabets."""
        if self.task_kind == "seq":
            specs = parse_templates(self.template_text)
            obs = [s for s in specs if s.kind == OBSERVATION]
            alphabets = [
                FeatureAlphabet(s.index, strings, frozen=True)
                for s, strings in zip(obs, self.alphabets, strict=False)
            ]
            table = LabelTable(self.labels)
            table.freeze()
            transition = "B" in self.group_ids
            return SequenceTask(obs, alphabets, table, transition)
        specs = parse_edge_templates(self.template_text)
        alphabets = [
            FeatureAlphabet(s.index, strings, frozen=True)
            for s, strings in zip(specs, self.alphabets, strict=True)
        ]
        extractor = EdgeFeatureExtractor(specs, alphabets)
        return DependencyTask(extractor, self.decoder, self.single_root)

    # --- serialization ---

    def _payload_blocks(self) -> list[bytes]:
        meta = {
            "task": self.task_kind,
            "n_columns": self.n_columns,
            "groups": self.group_ids,
            "labels": self.labels,
            "decoder": self.decoder,
            "single_root": self.single_root,
            "diagnostics": self.diagnostics,
        }
        blocks = [
            json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8"),
            self.template_text.encode("utf-8"),
            np.ascontiguousarray(self.mu, dtype="<f8").tobytes(),
        ]
        for strings in self.alphabets:
            blocks.append("\n".join(strings).encode("utf-8"))
        for w in self.weights:
            blocks.append(np.ascontiguousarray(w, dtype="<f8").tobytes())
        return blocks

    def payload(self) -> bytes:
        buf = bytearray()
        for block in self._payload_blocks():
            buf += struct.pack("<Q", len(block))
            buf += block
        return bytes(buf)

    def save(self, path: str) -> str:
        """Write the model; returns the payload checksum."""
        payload = self.payload()
        checksum = hashlib.sha256(payload).hexdigest()
        created = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
        header = f"{MAGIC}\ncreated={created}\nchecksum={checksum}\n\n"
        with open(path, "wb") as fh:
            fh.write(header.encode("ascii"))
            fh.write(payload)
        return checksum

    @classmethod
    def load(cls, path: str) -> "Model":
        with open(path, "rb") as fh:
            return cls.read(fh)

    @classmethod
    def read(cls, fh: BinaryIO) -> "Model":
        data = fh.read()
        sep = data.find(b"\n\n")
        if sep < 0:
            raise ModelFormatError("missing header terminator")
        lines = data[:sep].decode("ascii", errors="replace").split("\n")
        if not lines or lines[0] != MAGIC:
            raise ModelFormatError(f"bad magic line {lines[0]!r}" if lines else "empty file")
        header: dict[str, str] = {}
        for line in lines[1:]:
            key, eq, value = line.partition("=")
            if not eq:
                raise ModelFormatError(f"malformed header line {line!r}")
            header[key] = value
        if "checksum" not in header:
            raise ModelFormatError("header lacks a checksum")
        payload = data[sep + 2 :]
        digest = hashlib.sha256(payload).hexdigest()
        if digest != header["checksum"]:
            raise ModelFormatError("payload checksum mismatch")

        blocks = []
        off = 0
        while off < len(payload):
            if off + 8 > len(payload):
                raise ModelFormatError("truncated block length")
            (length,) = struct.unpack_from("<Q", payload, off)
            off += 8
            if off + length > len(payload):
                raise ModelFormatError("truncated block body")
            blocks.append(payload[off : off + length])
            off += length
        if len(blocks) < 3:
            raise ModelFormatError("payload lacks the required blocks")

        try:
            meta = json.loads(blocks[0].decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ModelFormatError(f"bad meta block: {exc}") from exc
        _check_meta(meta)
        groups = meta["groups"]
        m = len(groups)
        if len(blocks) != 3 + 2 * m:
            raise ModelFormatError(
                f"expected {3 + 2 * m} blocks for {m} groups, found {len(blocks)}"
            )
        template_text = blocks[1].decode("utf-8")
        mu = _floats(blocks[2], "mu")
        if mu.size != m or mu.min(initial=0.0) < 0 or abs(mu.sum() - 1.0) > _MU_SUM_TOL:
            raise ModelFormatError(f"mu is not a point of the {m}-group simplex: {mu!r}")
        alphabets = [
            blocks[3 + j].decode("utf-8").split("\n") if blocks[3 + j] else []
            for j in range(m)
        ]
        weights = []
        for j, gid in enumerate(groups):
            w = _floats(blocks[3 + m + j], f"group {gid!r} weight")
            want = _weight_size(meta, gid, len(alphabets[j]))
            if w.size != want:
                raise ModelFormatError(f"group {gid!r} has {w.size} weights, expected {want}")
            weights.append(w)
        return cls(
            meta["task"],
            template_text,
            meta["n_columns"],
            groups,
            meta["labels"],
            alphabets,
            mu,
            weights,
            decoder=meta.get("decoder", "projective"),
            single_root=meta.get("single_root", False),
            diagnostics=meta.get("diagnostics", {}),
        )


def _floats(block: bytes, what: str) -> np.ndarray:
    """A block of finite little-endian float64s."""
    if len(block) % 8:
        raise ModelFormatError(f"{what} block is {len(block)} bytes, not whole float64s")
    values = np.frombuffer(block, dtype="<f8").copy()
    if not np.isfinite(values).all():
        raise ModelFormatError(f"{what} block holds a non-finite value")
    return values


def _weight_size(meta: dict, gid: str, n_strings: int) -> int:
    """Weights of one group: one per string (dep), or per string and label (seq)."""
    if meta["task"] != "seq":
        return n_strings
    k = len(meta["labels"])
    return k * k if gid == "B" else n_strings * k


def _check_meta(meta) -> None:
    """Raise ModelFormatError unless `meta` has the keys and types `read` uses."""
    if not isinstance(meta, dict):
        raise ModelFormatError("meta block is not a JSON object")
    for key, (kind, required) in _META_FIELDS.items():
        if key not in meta:
            if required:
                raise ModelFormatError(f"meta block lacks {key!r}")
            continue
        value = meta[key]
        # bool subclasses int in Python, but JSON true is no column count
        ok = isinstance(value, kind) and not (kind is int and isinstance(value, bool))
        if ok and kind is list:
            ok = all(isinstance(item, str) for item in value)
        if not ok:
            raise ModelFormatError(f"meta {key!r} must be a JSON {kind.__name__}, got {value!r}")
