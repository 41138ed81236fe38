"""Trained-model container and its on-disk format.

A `Model` holds the task it decodes with (a `SequenceTask` or a
`DependencyTask`), plus the template text that task was built from, the
corpus column count, the group weighting `mu`, one weight vector per group
and the training diagnostics.  The task owns the group layout: the group
names and their order, each group's alphabet and its weight-vector size.

Layout: an ASCII prologue followed by a binary payload.

    MKLSP1\n
    created=<iso timestamp>\n
    checksum=<sha256 hex of the payload>\n
    \n
    <payload>

The payload is a sequence of length-prefixed blocks (u64 little endian):
meta JSON, template text, mu, then one alphabet block and one weight block
per feature group.  The meta and alphabet blocks are written from the task
(the transition group `B` interns no strings, so its alphabet block is
empty).  The checksum covers the payload only, so two runs that learn
identical parameters produce byte-identical payloads regardless of when
they were written.

A group that training dropped (see `solver.train`: mu exactly 0 and every
weight 0) keeps its rule in the template text and its entry in meta
`groups`, with mu 0, an empty alphabet block and an empty weight block, so
the model's task fires none of its features.  `B` has a fixed size: a
dropped `B` stores k * k zero weights.  `from_sequence` and
`from_dependency` build that task the way `read` does, from the template
text and the alphabets, so a model in memory and the same model loaded
are one task.  A model whose every group is kept has the layout of
the models written before groups were dropped.

`Model.read` parses the template text once and builds the task from it and
the alphabet blocks.  It raises ModelFormatError unless the text blocks are
UTF-8, the task builds (the template parses, reads only columns the model
has, and no alphabet repeats a string), its groups are the meta groups in
order, `B`'s alphabet block is empty, mu is a point of the simplex and
every weight block is finite and sized for its group (empty for an empty
alphabet), so every model that loads can decode.
"""

from __future__ import annotations

import hashlib
import json
import struct
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import BinaryIO, Sequence

import numpy as np

from .corpus import LabelTable
from .dependency import DependencyTask, EdgeFeatureExtractor, parse_edge_templates
from .sequence import SequenceTask
from .solver import MU_SUM_TOL
from .templates import OBSERVATION, parse_templates, validate_columns

MAGIC = "MKLSP1"

# meta key -> (JSON type, required); list values hold distinct strings only
_META_FIELDS = {
    "task": (str, True),
    "n_columns": (int, True),
    "groups": (list, True),
    "labels": (list, True),
    "decoder": (str, False),
    "single_root": (bool, False),
    "diagnostics": (dict, False),
}
_META_CHOICES = {"task": ("seq", "dep"), "decoder": ("projective", "nonprojective")}


class ModelFormatError(ValueError):
    """Raised for unreadable, truncated, or corrupted model files."""


@dataclass
class Model:
    task: SequenceTask | DependencyTask
    template_text: str
    n_columns: int
    mu: np.ndarray
    weights: list[np.ndarray]
    diagnostics: dict[str, str] = field(default_factory=dict)

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
        task, weights = _dropping(task, template_text, n_columns, mu, weights)
        return cls(task, template_text, n_columns, mu, weights, dict(diagnostics or {}))

    @classmethod
    def from_dependency(
        cls,
        task: DependencyTask,
        template_text: str,
        mu: np.ndarray,
        weights: list[np.ndarray],
        diagnostics: dict[str, str] | None = None,
    ) -> "Model":
        task, weights = _dropping(task, template_text, 10, mu, weights)
        return cls(task, template_text, 10, mu, weights, dict(diagnostics or {}))

    def build_task(self) -> SequenceTask | DependencyTask:
        """The decoding task, the one this model holds."""
        return self.task

    # --- serialization ---

    def _payload_blocks(self) -> list[bytes]:
        task = self.task
        meta = {**_task_meta(task, self.n_columns), "diagnostics": self.diagnostics}
        alphabets = _alphabets(task)
        blocks = [
            json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8"),
            self.template_text.encode("utf-8"),
            np.ascontiguousarray(self.mu, dtype="<f8").tobytes(),
        ]
        blocks += ["\n".join(a).encode("utf-8") for a in alphabets]
        blocks += [b""] * (len(task.group_ids) - len(alphabets))  # B interns nothing
        blocks += [np.ascontiguousarray(w, dtype="<f8").tobytes() for w in self.weights]
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
        try:
            template_text = blocks[1].decode("utf-8")
            strings = [b.decode("utf-8").split("\n") if b else [] for b in blocks[3 : 3 + m]]
        except UnicodeDecodeError as exc:
            raise ModelFormatError(f"a template or alphabet block is not UTF-8: {exc}") from exc
        try:
            task = _build_task(meta, template_text, strings)
        except ValueError as exc:  # a TemplateError, a repeated string, too many rules
            raise ModelFormatError(f"template block or alphabets: {exc}") from exc
        if task.group_ids != groups:
            raise ModelFormatError(
                f"template block defines groups {task.group_ids}, meta lists {groups}"
            )
        n_alphabets = len(_alphabets(task))
        if any(strings[n_alphabets:]):
            raise ModelFormatError(f"group {groups[-1]!r} interns no strings, but stores some")
        mu = _floats(blocks[2], "mu")
        if mu.size != m or mu.min(initial=0.0) < 0 or abs(mu.sum() - 1.0) > MU_SUM_TOL:
            raise ModelFormatError(f"mu is not a point of the {m}-group simplex: {mu!r}")
        weights = []
        for gid, want, block in zip(groups, task.group_dims, blocks[3 + m :], strict=True):
            w = _floats(block, f"group {gid!r} weight")
            if w.size != want:
                raise ModelFormatError(f"group {gid!r} has {w.size} weights, expected {want}")
            weights.append(w)
        return cls(
            task, template_text, meta["n_columns"], mu, weights, meta.get("diagnostics", {})
        )


def _dropping(
    task: SequenceTask | DependencyTask,
    template_text: str,
    n_columns: int,
    mu: np.ndarray,
    weights: list[np.ndarray],
) -> tuple[SequenceTask | DependencyTask, list[np.ndarray]]:
    """The task `read` builds of `task` with an empty alphabet for every
    group whose mu is 0 and whose weights are all 0, and `weights` sized for
    its groups."""
    dropped = {j for j, (m, w) in enumerate(zip(mu, weights)) if m == 0.0 and not w.any()}
    if not dropped:
        return task, weights
    strings = [[] if j in dropped else list(a) for j, a in enumerate(_alphabets(task))]
    task = _build_task(_task_meta(task, n_columns), template_text, strings)
    return task, [w[:dim] for w, dim in zip(weights, task.group_dims, strict=True)]


def _task_meta(task: SequenceTask | DependencyTask, n_columns: int) -> dict:
    """The meta entries that describe `task`, all but the diagnostics."""
    seq = isinstance(task, SequenceTask)
    return {
        "task": "seq" if seq else "dep",
        "n_columns": n_columns,
        "groups": task.group_ids,
        "labels": task.labels.labels() if seq else [],
        # a tagger stores the parser defaults
        "decoder": "projective" if seq else task.decoder,
        "single_root": False if seq else task.single_root,
    }


def _alphabets(task: SequenceTask | DependencyTask) -> list[tuple[str, ...]]:
    """The task's alphabets in group order; `B`, last when present, has none."""
    return task.alphabets if isinstance(task, SequenceTask) else task.extractor.alphabets


def _build_task(
    meta: dict, text: str, strings: list[list[str]]
) -> SequenceTask | DependencyTask:
    """The task that the template text and alphabet strings define (ValueError if none)."""
    if meta["task"] == "seq":
        specs = parse_templates(text)
        validate_columns(specs, meta["n_columns"])
        table = LabelTable(meta["labels"])
        table.freeze()
        obs = [s for s in specs if s.kind == OBSERVATION]
        return SequenceTask(specs, _frozen(obs, strings), table)
    specs = parse_edge_templates(text)
    extractor = EdgeFeatureExtractor(specs, _frozen(specs, strings))
    return DependencyTask(
        extractor, meta.get("decoder", "projective"), meta.get("single_root", False)
    )


def _frozen(specs: Sequence, strings: list[list[str]]) -> list[tuple[str, ...]]:
    # pairs rules and blocks in order; zip stops at B's block, and a rule
    # count unlike meta's fails the group check in `read`
    alphabets = [tuple(group) for _, group in zip(specs, strings)]
    for alphabet in alphabets:
        if len(set(alphabet)) < len(alphabet):
            repeated = next(s for s, n in Counter(alphabet).items() if n > 1)
            raise ValueError(f"duplicate feature string {repeated!r}")
    return alphabets


def _floats(block: bytes, what: str) -> np.ndarray:
    """A block of finite little-endian float64s."""
    if len(block) % 8:
        raise ModelFormatError(f"{what} block is {len(block)} bytes, not whole float64s")
    values = np.frombuffer(block, dtype="<f8").copy()
    if not np.isfinite(values).all():
        raise ModelFormatError(f"{what} block holds a non-finite value")
    return values


def _check_meta(meta) -> None:
    """Raise ModelFormatError unless `meta` has the keys, types and values `read` uses."""
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
        choices = _META_CHOICES.get(key)
        if choices and value not in choices:
            raise ModelFormatError(f"meta {key!r} must be one of {choices}, got {value!r}")
        if kind is list and len(set(value)) < len(value):
            raise ModelFormatError(f"meta {key!r} repeats an entry: {value!r}")
