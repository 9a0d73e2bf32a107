"""Spans around calls into cvnet's layers, recorded from outside the package.

`installed(tracer)` replaces public functions of cvnet's modules by
attribute with wrappers that open and close a span, and restores them on
exit. No file of the package changes. Callers inside the package look the
functions up through the same module attributes, so the spans cover the
calls the trainer and the CLI make.

A span is a tuple (sid, parent, name, start, end, pid, step, extra):
`sid` is (pid, counter), `parent` the sid of the span open when it began,
`step` the (pid, counter) of the optimizer step it fell in (or None), and
`extra` a dict of counts computed from array sizes. Times come from
`time.perf_counter`, one monotonic clock for all processes of the host, so
spans from forked pool workers line up with the parent's.

`autodiff.backward` is special: before calling the original it wraps each
graph node's `emit` closure, so every backward emission becomes a span
named `autodiff.emit.<op>`, and it counts the nodes of the graph and the
cogradient elements and bytes each emission produces.
"""

from __future__ import annotations

import functools
import os
import pickle
import time
from contextlib import contextmanager

from cvnet import autodiff as ad
from cvnet import cli, datagen, nn, spectral, trainer

# Spans whose time says nothing about a layer's own work: the synthetic step
# span overlaps its siblings and is left out of self-time sums.
SYNTHETIC = {"trainer.step"}

_WORKER_SPANS = "_perfbench_spans"


class Tracer:
    """Spans kept in memory; one per process (forked workers get a copy)."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.stack: list[tuple] = []  # (sid, name, start)
        self.counter = 0
        self.step = None
        self.step_start = 0.0
        self.param_ids: frozenset[int] = frozenset()
        self.owner = os.getpid()

    def open(self, name: str) -> None:
        sid = (os.getpid(), self.counter)
        self.counter += 1
        self.stack.append((sid, name, time.perf_counter()))

    def close(self, extra=None) -> None:
        end = time.perf_counter()
        sid, name, start = self.stack.pop()
        parent = self.stack[-1][0] if self.stack else None
        self.spans.append((sid, parent, name, start, end, sid[0], self.step, extra))

    def top(self):
        return self.stack[-1] if self.stack else None

    def record(self, name: str, start: float, end: float, extra=None) -> None:
        """A span for an interval that is not a single call (the optimizer step)."""
        sid = (os.getpid(), self.counter)
        self.counter += 1
        parent = self.stack[-1][0] if self.stack else None
        self.spans.append((sid, parent, name, start, end, sid[0], self.step, extra))


def _spanned(tracer: Tracer, name: str, fn, extra_of=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.open(name)
        extra = None
        try:
            out = fn(*args, **kwargs)
            if extra_of is not None:
                extra = extra_of(args, kwargs, out)
            return out
        finally:
            tracer.close(extra)

    return wrapper


def _graph(root) -> list:
    """Nodes reachable from root, parents before consumers."""
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        stack.extend((p, False) for p in node.parents)
    return order


def _traced_backward(tracer: Tracer, original):
    @functools.wraps(original)
    def backward(root, seed=1.0):
        nodes = _graph(root)
        # A node's cogradient is useful when it can reach a parameter leaf;
        # data frames and the zero initial state are constant leaves.
        reaches = {}
        for node in nodes:
            if node.emit is None:
                reaches[id(node)] = id(node) in tracer.param_ids
            else:
                reaches[id(node)] = any(reaches[id(p)] for p in node.parents)
        counts = {"nodes": len(nodes), "emitted_bytes": 0, "emitted_elems": 0, "useful_elems": 0}

        def timed(emit, op, parents):
            name = "autodiff.emit." + op

            def run(gamma, delta):
                tracer.open(name)
                try:
                    out = emit(gamma, delta)
                finally:
                    tracer.close()
                for parent, c in zip(parents, out):
                    if c is None:
                        continue
                    counts["emitted_bytes"] += c.nbytes
                    counts["emitted_elems"] += c.size
                    if reaches[id(parent)]:
                        counts["useful_elems"] += c.size
                return out

            return run

        for node in nodes:
            if node.emit is not None:
                node.emit = timed(node.emit, node.op, node.parents)
        tracer.open("autodiff.backward")
        try:
            return original(root, seed)
        finally:
            tracer.close(counts)

    return backward


def _traced_param_vars(tracer: Tracer, original):
    @functools.wraps(original)
    def param_vars(model):
        top = tracer.top()
        if top is not None and top[1] == "trainer.train":
            # A training step starts where the trainer asks for fresh leaves.
            tracer.step = (os.getpid(), tracer.counter)
            tracer.step_start = time.perf_counter()
        tracer.open("nn.param_vars")
        try:
            out = original(model)
        finally:
            tracer.close()
        tracer.param_ids = frozenset(id(v) for v in out.values())
        return out

    return param_vars


def _traced_sgd(tracer: Tracer, original):
    @functools.wraps(original)
    def sgd_momentum_step(*args, **kwargs):
        tracer.open("trainer.sgd_momentum_step")
        try:
            return original(*args, **kwargs)
        finally:
            tracer.close()
            if tracer.step is not None:
                tracer.record("trainer.step", tracer.step_start, time.perf_counter())
                tracer.step = None

    return sgd_momentum_step


def _traced_train(tracer: Tracer, original):
    @functools.wraps(original)
    def train(model, data, config):
        tracer.open("trainer.train")
        try:
            return original(model, data, config)
        finally:
            tracer.step = None  # a diverged step never reaches the optimizer
            tracer.close()

    return train


def _traced_trial(tracer: Tracer, original):
    @functools.wraps(original)
    def _run_trial(args):
        first = len(tracer.spans)
        tracer.open("trainer.trial")
        try:
            result = original(args)
        finally:
            tracer.close()
        if os.getpid() != tracer.owner:
            # In a pool worker: ship this trial's spans back with its result.
            mine = tracer.spans[first:]
            del tracer.spans[first:]
            setattr(result, _WORKER_SPANS, mine)
        return result

    return _run_trial


def _traced_search(tracer: Tracer, original):
    @functools.wraps(original)
    def random_search(data, field, hidden, n_trials, seed, epochs, batch_size,
                      space=None, jobs=1):
        # Computed, not timed: the bytes one trial's work item pickles to,
        # which a pool sends to a worker for every trial.
        item = (data, field, hidden, space or trainer.SearchSpace(), seed, epochs,
                batch_size, 0)
        pickled = len(pickle.dumps(item, protocol=pickle.DEFAULT_PROTOCOL))
        tracer.open("trainer.random_search")
        try:
            results = original(data, field, hidden, n_trials, seed, epochs, batch_size,
                               space=space, jobs=jobs)
        finally:
            tracer.close({"jobs": jobs, "trials": n_trials, "pickled_bytes": pickled})
        for r in results:
            tracer.spans.extend(r.__dict__.pop(_WORKER_SPANS, ()))
        return results

    return random_search


def _dataset_bytes(bundle) -> int:
    return sum(part.nbytes for part in (bundle.train, bundle.val, bundle.test))


def _targets(tracer: Tracer):
    """(owner, attribute, wrapper factory) for every traced entry point."""

    def plain(name, extra_of=None):
        return lambda fn: _spanned(tracer, name, fn, extra_of)

    def bundle_obs(args, kwargs, out):
        return {"obs": sum(p.shape[0] for p in (out.train, out.val, out.test))}

    return [
        (datagen, "generate_bundle", plain("datagen.generate_bundle", bundle_obs)),
        (datagen, "build_views", plain("datagen.build_views")),
        (datagen, "write_dataset",
         plain("datagen.write_dataset", lambda a, k, out: {"bytes": _dataset_bytes(a[0])})),
        (datagen, "read_dataset",
         plain("datagen.read_dataset", lambda a, k, out: {"bytes": _dataset_bytes(out)})),
        (nn, "param_vars", lambda fn: _traced_param_vars(tracer, fn)),
        (nn, "predict_frame", plain("nn.predict_frame")),
        (nn, "ctanh", plain("nn.ctanh")),
        (nn, "forward_loss", plain("nn.forward_loss")),
        (nn, "save_model", plain("nn.save_model")),
        (nn.RecurrentModel, "copy", plain("nn.RecurrentModel.copy")),
        (ad, "matmul", plain("autodiff.matmul")),
        (ad, "mse", plain("autodiff.mse")),
        (ad, "backward", lambda fn: _traced_backward(tracer, fn)),
        (trainer, "sgd_momentum_step", lambda fn: _traced_sgd(tracer, fn)),
        (trainer, "train", lambda fn: _traced_train(tracer, fn)),
        (trainer, "_run_trial", lambda fn: _traced_trial(tracer, fn)),
        (trainer, "random_search", lambda fn: _traced_search(tracer, fn)),
        (trainer, "write_search_csv", plain("trainer.write_search_csv")),
        (trainer, "write_curves_csv", plain("trainer.write_curves_csv")),
        (spectral, "write_filters_csv", plain("spectral.write_filters_csv")),
        (cli, "cmd_gen", plain("cli.gen")),
        (cli, "cmd_search", plain("cli.search")),
        (cli, "cmd_eval", plain("cli.eval")),
        (cli, "cmd_filters", plain("cli.filters")),
    ]


@contextmanager
def installed(tracer: Tracer):
    """Wrap every traced entry point for the duration of the block."""
    saved = []
    try:
        for owner, attr, make in _targets(tracer):
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
