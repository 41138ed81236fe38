"""Feature template parsing, instantiation, and per-group alphabets.

Template files follow the CRF++ conventions: one rule per line, ``#`` starts
a comment, blank lines are ignored.  An observation rule looks like
``U02:%x[0,0]`` where ``%x[row,col]`` picks the token ``row`` positions away
from the current one and reads its column ``col``; several macros can be
joined with ``/`` (``U05:%x[-1,0]/%x[0,0]``).  The bare line ``B`` switches
on the label-transition group, so ``B`` is not an observation index.  Each
rule owns one feature group.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import count, filterfalse, repeat
from typing import Iterable, Sequence

import numpy as np

OBSERVATION = "observation"
TRANSITION = "transition"

_MACRO = re.compile(r"^%x\[(-?\d+),(\d+)\]$")


class TemplateError(ValueError):
    """Raised for malformed template files or template/corpus mismatches."""


@dataclass(frozen=True)
class TemplateSpec:
    """One parsed extraction rule."""

    index: str
    kind: str  # OBSERVATION or TRANSITION
    macros: tuple[tuple[int, int], ...] = ()  # (row offset, column)


def parse_templates(text: str) -> list[TemplateSpec]:
    """Parse a template file into specs, preserving file order."""
    specs: list[TemplateSpec] = []
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line == "B":
            spec = TemplateSpec("B", TRANSITION)
        else:
            index, sep, body = line.partition(":")
            if not sep or not index or not body:
                raise TemplateError(
                    f"line {lineno}: expected 'Index:%x[row,col]/...' or 'B', got {raw!r}"
                )
            if index == "B":
                # a model reads the group named B as the transition block
                raise TemplateError(f"line {lineno}: index 'B' is reserved for transitions")
            macros = []
            for part in body.split("/"):
                m = _MACRO.match(part)
                if m is None:
                    raise TemplateError(f"line {lineno}: malformed macro {part!r}")
                macros.append((int(m.group(1)), int(m.group(2))))
            spec = TemplateSpec(index, OBSERVATION, tuple(macros))
        if spec.index in seen:
            raise TemplateError(f"line {lineno}: duplicate template index {spec.index!r}")
        seen.add(spec.index)
        specs.append(spec)
    return specs


def boundary_symbol(position: int, length: int) -> str | None:
    """Sentinel for positions outside [0, length), None inside."""
    if position < 0:
        return f"_B{position}"
    if position >= length:
        return f"_B+{position - length + 1}"
    return None


def instantiate_all(spec: TemplateSpec, tokens: Sequence[tuple[str, ...]]) -> list[str]:
    """Feature strings of `spec` at every position of one sentence.

    Entry t is ``spec.index + ":"`` followed by the macros' values read
    ``row`` positions from t and joined by ``/``.  An out-of-range position
    reads the distance-stamped boundary sentinel instead of a token column;
    columns must be valid for the corpus (checked once by `validate_columns`,
    not here).  Each macro's column of values is read once per sentence,
    then the columns are joined position by position.
    """
    l = len(tokens)
    columns = [
        [tokens[p][col] if 0 <= p < l else boundary_symbol(p, l) for p in range(row, row + l)]
        for row, col in spec.macros
    ]
    return list(map((spec.index + ":").__add__, map("/".join, zip(*columns))))


def validate_columns(specs: Iterable[TemplateSpec], n_columns: int) -> None:
    for spec in specs:
        for _, col in spec.macros:
            if col >= n_columns:
                raise TemplateError(
                    f"template {spec.index}: column {col} out of range "
                    f"(corpus has {n_columns} observation columns)"
                )


class FeatureAlphabet:
    """Interning table for one template group; frozen after corpus indexing."""

    __slots__ = ("group_id", "_ids", "_frozen")

    def __init__(self, group_id: str, strings: Iterable[str] = (), frozen: bool = False):
        self.group_id = group_id
        self._ids: dict[str, int] = {}
        for s in strings:
            if s in self._ids:
                raise ValueError(f"duplicate feature string {s!r}")
            self._ids[s] = len(self._ids)
        self._frozen = frozen

    def __len__(self) -> int:
        return len(self._ids)

    def freeze(self) -> None:
        self._frozen = True

    def intern_all(self, strings: Iterable[str]) -> None:
        """Intern every string in order: new strings get the next ids, first
        seen first.  A frozen alphabet raises ValueError on a new string."""
        new = filterfalse(self._ids.__contains__, dict.fromkeys(strings))
        if self._frozen:
            first = next(new, None)
            if first is not None:
                raise ValueError(f"alphabet {self.group_id} is frozen; cannot add {first!r}")
            return
        # `new` holds each string once, so ids are handed out in first-seen order
        self._ids.update(zip(new, count(len(self._ids))))

    def lookup_all(self, strings: Sequence[str]) -> np.ndarray:
        """Ids of `strings` as an int64 array, -1 where a string is unknown."""
        return np.fromiter(
            map(self._ids.get, strings, repeat(-1)), dtype=np.int64, count=len(strings)
        )

    def strings(self) -> list[str]:
        # dicts preserve insertion order, which is the id order
        return list(self._ids)

    def __repr__(self) -> str:
        state = "frozen" if self._frozen else "open"
        return f"FeatureAlphabet({self.group_id!r}, {len(self)} entries, {state})"


def index_corpus(specs: Sequence[TemplateSpec], corpus: Sequence) -> list[FeatureAlphabet]:
    """Build one frozen alphabet per observation template, first-seen order.

    `corpus` is a sequence of objects with a `tokens` attribute (list of
    column tuples).  Every feature string instantiated anywhere in the corpus
    is interned.
    """
    if not corpus:
        raise ValueError("cannot index an empty corpus")
    obs = [s for s in specs if s.kind == OBSERVATION]
    validate_columns(obs, len(corpus[0].tokens[0]) if corpus[0].tokens else 0)
    alphabets = [FeatureAlphabet(s.index) for s in obs]
    for inst in corpus:
        for spec, alphabet in zip(obs, alphabets):
            alphabet.intern_all(instantiate_all(spec, inst.tokens))
    for alphabet in alphabets:
        alphabet.freeze()
    return alphabets

