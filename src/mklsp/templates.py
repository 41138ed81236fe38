"""Feature template parsing, template keys, and per-group alphabets.

Template files follow the CRF++ conventions, and `parse_rules` reads them
for both grammars (this one and the parser's edge selectors): one
``Index:body`` rule per line with distinct indices, a line starting with
``#`` is a comment, blank lines are skipped, CRLF reads like LF, and errors
name the line.  An observation rule looks like ``U02:%x[0,0]`` where
``%x[row,col]`` picks the token ``row`` positions away from the current one
and reads its column ``col``; several macros can be joined with ``/``
(``U05:%x[-1,0]/%x[0,0]``).  The bare line ``B`` switches on the
label-transition group, so ``B`` is not an observation index.  Each rule
owns one feature group.  No offset exceeds `MAX_OFFSET` either way.

Features are keyed by value (`TemplateKeys`): a one-macro rule fires the
value it reads, a rule with K macros the K-tuple of its values.  A feature's
string is ``index:`` and the values joined by ``/``.  `index_corpus` writes
strings only for distinct keys, in the order the keys are first seen over
(sentence, position), which model checksums rest on.  An alphabet is a
plain tuple of strings, a string's position its id in its group, built once
and only read afterwards; `key_table` maps strings back to keys.  A feature
is still its string: values holding a ``/`` can spell another key's string,
and then the two are one feature.  Such strings have more ``/`` than their
rule has macros; they stay strings, looked up only when a firing's key
misses.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

OBSERVATION = "observation"
TRANSITION = "transition"

_MACRO = re.compile(r"^%x\[(-?\d+),(\d+)\]$")
MAX_OFFSET = 100  # a task pads each sentence with a sentinel per position of reach


class TemplateError(ValueError):
    """Raised for malformed template files or template/corpus mismatches."""


def parse_offset(text: str, lineno: int) -> int:
    """The macro row or selector offset that `text` spells, |offset| <= `MAX_OFFSET`."""
    offset = int(text)
    if abs(offset) > MAX_OFFSET:
        raise TemplateError(f"line {lineno}: offset {offset} is more than {MAX_OFFSET} away")
    return offset


@dataclass(frozen=True)
class TemplateSpec:
    """One parsed extraction rule."""

    index: str
    kind: str  # OBSERVATION or TRANSITION
    macros: tuple[tuple[int, int], ...] = ()  # (row offset, column)


def parse_rules(text: str, form: str, parse: Callable[[str, str, int], Any], bare: dict) -> list:
    """The specs of a template file's rules, in file order: blank lines and
    ``#`` comments are skipped, a line that `bare` holds is its spec there,
    and any other, split as ``index:body`` (of the shape `form` names), is
    `parse(index, body, lineno)`.  Then the spec's index must be new."""
    specs: list = []
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        spec = bare.get(line)
        if spec is None:
            index, sep, body = line.partition(":")
            if not sep or not index or not body:
                raise TemplateError(f"line {lineno}: expected {form}, got {raw!r}")
            spec = parse(index, body, lineno)
        if spec.index in seen:
            raise TemplateError(f"line {lineno}: duplicate template index {spec.index!r}")
        seen.add(spec.index)
        specs.append(spec)
    return specs


def parse_templates(text: str) -> list[TemplateSpec]:
    """Parse a template file into specs, preserving file order."""
    transition = {"B": TemplateSpec("B", TRANSITION)}
    return parse_rules(text, "'Index:%x[row,col]/...' or 'B'", _observation_rule, transition)


def _observation_rule(index: str, body: str, lineno: int) -> TemplateSpec:
    if index == "B":
        # a model reads the group named B as the transition block
        raise TemplateError(f"line {lineno}: index 'B' is reserved for transitions")
    macros = []
    for part in body.split("/"):
        m = _MACRO.match(part)
        if m is None:
            raise TemplateError(f"line {lineno}: malformed macro {part!r}")
        macros.append((parse_offset(m.group(1), lineno), int(m.group(2))))
    return TemplateSpec(index, OBSERVATION, tuple(macros))


def boundary_symbol(position: int, length: int) -> str | None:
    """Sentinel for positions outside [0, length), None inside."""
    if position < 0:
        return f"_B{position}"
    if position >= length:
        return f"_B+{position - length + 1}"
    return None


class TemplateKeys:
    """Each template's key at each position of a sentence.  Each column is
    read once into a list padded with boundary sentinels, and a macro's
    values are one slice of it; columns must be valid (`validate_columns`)."""

    def __init__(self, specs: Sequence[TemplateSpec]):
        rows = [row for spec in specs for row, _ in spec.macros]
        before, after = max(0, -min(rows, default=0)), max(0, max(rows, default=0))
        # a sentinel depends on the distance past the edge, not on the length
        self.left = [boundary_symbol(p, 0) for p in range(-before, 0)]
        self.right = [boundary_symbol(p, 0) for p in range(after)]
        self.slices = [[(before + row, col) for row, col in spec.macros] for spec in specs]

    def __call__(self, tokens: Sequence[tuple[str, ...]]) -> list[Iterable]:
        """Per template, its keys at positions 0..l-1, as one iterable."""
        l = len(tokens)
        if not l:
            return [()] * len(self.slices)
        padded = [[*self.left, *column, *self.right] for column in zip(*tokens)]
        values = [[padded[col][s : s + l] for s, col in slices] for slices in self.slices]
        return [v[0] if len(v) == 1 else zip(*v) for v in values]


def key_table(spec: TemplateSpec, strings: Iterable[str]) -> Callable[[Any, int], int]:
    """``get(key, default)``: the id of the `spec` string that `key` fires.
    A one-macro tail (after ``index:``) is its value; with K > 1 macros a
    tail of K - 1 ``/`` is its split K-tuple, and a tail of more is looked
    up as a string when the key misses.  Other strings are dead."""
    prefix, k = spec.index + ":", len(spec.macros)
    tails = [(s[len(prefix) :], i) for i, s in enumerate(strings) if s.startswith(prefix)]
    if k == 1:
        return dict(tails).get
    keyed = {tuple(t.split("/")): i for t, i in tails if t.count("/") == k - 1}
    spelled = {t: i for t, i in tails if t.count("/") >= k}
    if not spelled:
        return keyed.get

    def get(key, default):
        i = keyed.get(key)
        return spelled.get("/".join(key), default) if i is None else i

    return get


def validate_columns(specs: Iterable[TemplateSpec], n_columns: int) -> None:
    for spec in specs:
        for _, col in spec.macros:
            if col >= n_columns:
                raise TemplateError(
                    f"template {spec.index}: column {col} out of range "
                    f"(corpus has {n_columns} observation columns)"
                )


def index_corpus(specs: Sequence[TemplateSpec], corpus: Sequence) -> list[tuple[str, ...]]:
    """Build one alphabet per observation template: its feature strings,
    a string's position its id, in first-seen order.

    `corpus` is a sequence of objects with a `tokens` attribute (list of
    column tuples).  Each template's distinct keys are collected in first-seen
    order; strings are written only for them, and equal strings merge.
    """
    if not corpus:
        raise ValueError("cannot index an empty corpus")
    obs = [s for s in specs if s.kind == OBSERVATION]
    validate_columns(obs, len(corpus[0].tokens[0]) if corpus[0].tokens else 0)
    read = TemplateKeys(obs)
    seen: list[dict] = [{} for _ in obs]
    for inst in corpus:
        for found, keys in zip(seen, read(inst.tokens)):
            found.update(dict.fromkeys(keys))
    alphabets = []
    for spec, found in zip(obs, seen):
        tails = found if len(spec.macros) == 1 else map("/".join, found)
        strings = map((spec.index + ":").__add__, tails)
        alphabets.append(tuple(dict.fromkeys(strings)))  # equal strings merge here
    return alphabets
