"""Spans recorded from outside the program, and the per-layer metrics.

`Tracer.install` swaps public functions of the mklsp modules for wrappers
that record a span per call: name, start, end, parent span, and the
training iteration it belongs to.  Each function is wrapped where the
caller looks it up (`solver.sparse_dot` is the solver's reference to
`sparse.sparse_dot`), so the program runs unedited.  Spans stay in memory;
`uninstall` restores every attribute.  Calls made inside forked decode
workers record into the worker's copy and are lost, which is why only
`solver.decode_s` is visible with two jobs.
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass, field

from mklsp import corpus, dependency, model, sequence, solver

_TRAIN = "solver.train"
_OBJECTIVE = ("solver.row_value", "solver.working_set_value", "solver.primal_objective")


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    root: str  # name of the outermost span above this one, or its own
    iteration: int | None
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _decoded(args, kwargs, outputs):
    task, _, instances = args[:3]
    augmented = kwargs.get("augmented", args[4] if len(args) > 4 else None)
    counts = {"sentences": len(outputs)}
    if augmented:
        counts["violated"] = sum(
            list(out) != task.gold_output(inst) for inst, out in zip(instances, outputs)
        )
    return counts


def _row_nnz(args, kwargs, row):
    return {"nnz": sum(g.nnz for g in row.p.groups)}


def _compiled_ids(args, kwargs, compiled):
    if hasattr(compiled, "feats"):
        return {"firing_ids": sum(int((f >= 0).sum()) for f in compiled.feats)}
    return {"firing_ids": sum(int(f.size) for _, _, f in compiled.group_edges)}


def _read_tokens(args, kwargs, instances):
    return {"tokens": sum(len(inst.tokens) for inst in instances)}


def _trained(args, kwargs, result):
    return {
        "iterations": result.n_iterations,
        "working_set": len(result.rows),
        "active_rows": int((result.alpha > 0).sum()),
    }


# (owner, attribute, span name, counter of the call's result)
_TARGETS = [
    (corpus, "read_sequence_corpus", "corpus.read", _read_tokens),
    (corpus, "read_dependency_corpus", "corpus.read", _read_tokens),
    (corpus, "write_sequence_corpus", "corpus.write", None),
    (corpus, "write_dependency_corpus", "corpus.write", None),
    (sequence, "index_corpus", "templates.index", None),
    (dependency.EdgeFeatureExtractor, "build", "templates.index", None),
    (sequence.SequenceTask, "compile", "compile", _compiled_ids),
    (dependency.DependencyTask, "compile", "compile", _compiled_ids),
    (sequence, "loss_augmented_decode", "sequence.decode", None),
    (sequence, "viterbi_decode", "sequence.decode", None),
    (dependency.DependencyTask, "edge_scores", "dependency.scores", None),
    (dependency, "eisner_decode", "dependency.eisner", None),
    (dependency, "cle_decode", "dependency.cle", None),
    (solver, "train", _TRAIN, _trained),
    (solver, "parallel_decode", "solver.decode", _decoded),
    (solver, "build_constraint_row", "solver.row", _row_nnz),
    (solver, "sparse_dot", "solver.gram_dot", None),
    (solver, "solve_subproblem", "solver.subproblem", None),
    (solver, "solve_qp", "solver.polish", None),
    (solver, "recover_primal", "solver.recover", None),
    (solver, "row_value", "solver.row_value", None),
    (solver, "working_set_value", "solver.working_set_value", None),
    (solver, "primal_objective", "solver.primal_objective", None),
    (model.Model, "save", "model.save", None),
    (model.Model, "load", "model.load", None),
    (model.Model, "build_task", "model.build_task", None),
]


class Tracer:
    """In-memory span recorder; one per traced repetition."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._iteration = 0
        self._saved: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        if name == "solver.decode" and parent is not None and self.spans[parent].name == _TRAIN:
            self._iteration += 1  # each training iteration starts with its oracle pass
        root = self.spans[parent].root if parent is not None else name
        iteration = self._iteration if root == _TRAIN else None
        span = Span(name, time.perf_counter(), parent, root, iteration)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around one of its phases."""
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def _wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if counter is not None:
                self.spans[idx].counts = counter(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        for owner, attr, name, counter in _TARGETS:
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                wrapped = staticmethod(self._wrap(getattr(owner, attr), name, counter))
            else:
                wrapped = self._wrap(raw, name, counter)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    # --- reading the spans ---

    def self_time(self, idx: int) -> float:
        children = sum(s.duration for s in self.spans if s.parent == idx)
        return self.spans[idx].duration - children

    def select(self, name: str, root: str | None = None, parent: str | None = None):
        for s in self.spans:
            if s.name != name:
                continue
            if root is not None and s.root != root:
                continue
            if parent is not None and (s.parent is None or self.spans[s.parent].name != parent):
                continue
            yield s

    def total(self, name: str, **where) -> float:
        return sum(s.duration for s in self.select(name, **where))

    def count(self, name: str, key: str, **where) -> int:
        return sum(s.counts.get(key, 0) for s in self.select(name, **where))

    def to_records(self) -> list[dict]:
        return [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "iteration": s.iteration,
                **({"counts": s.counts} if s.counts else {}),
            }
            for s in self.spans
        ]


def layer_metrics(tracer: Tracer, features: int, model_bytes: int) -> dict[str, float]:
    """Per-layer figures of one traced setup + train + predict repetition.

    The benchmark opens the root spans "setup" and "predict"; training is
    the root span "solver.train".
    """
    t = tracer
    trains = [i for i, s in enumerate(t.spans) if s.name == _TRAIN]
    if len(trains) != 1:
        raise ValueError(f"expected one traced training, found {len(trains)}")
    train_idx = trains[0]
    train_span = t.spans[train_idx]
    decoded = t.count("solver.decode", "sentences", parent=_TRAIN)
    subproblems = list(t.select("solver.subproblem", root=_TRAIN))
    return {
        "templates.index_s": t.total("templates.index", root="setup"),
        "templates.features": features,
        "compile.train_s": t.total("compile", root="setup"),
        "compile.firing_ids": t.count("compile", "firing_ids", root="setup"),
        "solver.iterations": train_span.counts["iterations"],
        "solver.decode_s": t.total("solver.decode", parent=_TRAIN),
        "solver.decode_sentences": decoded,
        "solver.violated_ratio": (
            t.count("solver.decode", "violated", parent=_TRAIN) / decoded if decoded else 0.0
        ),
        "sequence.decode_s": t.total("sequence.decode"),
        "dependency.scores_s": t.total("dependency.scores"),
        "dependency.eisner_s": t.total("dependency.eisner"),
        "dependency.cle_s": t.total("dependency.cle"),
        "solver.row_s": t.total("solver.row", parent=_TRAIN),
        "solver.row_nnz": t.count("solver.row", "nnz", parent=_TRAIN),
        "solver.subproblem_s": sum(s.duration for s in subproblems),
        "solver.subproblem_calls": len(subproblems),
        "solver.subproblem_last_ms": 1e3 * subproblems[-1].duration if subproblems else 0.0,
        "solver.working_set": train_span.counts["working_set"],
        "solver.active_rows": train_span.counts["active_rows"],
        "solver.polish_s": t.total("solver.polish", root=_TRAIN),
        "solver.gram_s": t.total("solver.gram_dot", parent=_TRAIN),
        "solver.gram_dots": sum(1 for _ in t.select("solver.gram_dot", parent=_TRAIN)),
        "solver.recover_s": t.total("solver.recover", parent=_TRAIN),
        # row_value also runs inside the other two; count only the outermost
        "solver.objective_s": sum(t.total(name, parent=_TRAIN) for name in _OBJECTIVE),
        "solver.train_self_s": t.self_time(train_idx),
        "predict.compile_s": t.total("compile", root="predict"),
        "predict.decode_s": t.total("solver.decode", root="predict"),
        "model.save_s": t.total("model.save"),
        "model.bytes": model_bytes,
        "model.load_s": t.total("model.load") + t.total("model.build_task"),
        "corpus.read_s": t.total("corpus.read", root="predict"),
        "corpus.write_s": t.total("corpus.write", root="predict"),
        "corpus.tokens": t.count("corpus.read", "tokens", root="predict"),
    }
