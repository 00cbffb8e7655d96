"""Run one ``polarpipe`` command with a span around each public layer call.

    python3 perfbench/tracer.py SPANS.json <polarpipe arguments...>

The wrappers replace the names that callers resolve at call time: the stage
functions that ``polarpipe.cli`` bound at import, ``featurize_all`` in
``polarpipe.linear_model``, ``tune`` in ``polarpipe.calibration``,
``evaluate`` in ``polarpipe.metrics``, and the kernels on the
``polarpipe._kernels`` module that ``linear_model`` and ``calibration`` call
through. Spans (name, start, end, parent) and per-layer counts are kept in
memory and written to SPANS.json when the command returns.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def wrap(self, name, fn, count=None):
        """``fn`` inside a span; ``count(args, kwargs, result, counts)`` adds work counts."""

        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append((name, 0.0, 0.0, parent))
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent)
            self.counts[name + ".calls"] += 1
            if count is not None:
                count(args, kwargs, result, self.counts)
            return result

        return traced


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs[key]


def _count_load(args, kwargs, ds, counts):
    counts["corpus.load_dataset.chars"] += sum(len(inst.raw_text) for inst in ds.instances)


def _count_featurize(args, kwargs, fm, counts):
    counts["linear_model.featurize_all.nnz"] += fm.indices.size


def _count_train(args, kwargs, result, counts):
    counts["linear_model.train.epochs"] += len(result[1].epoch_train_loss)


def _count_model_file(name):
    def count(args, kwargs, result, counts):
        path = _arg(args, kwargs, 1 if name == "save_model" else 0, "path")
        counts["linear_model.model_bytes"] += os.path.getsize(path)

    return count


def _count_digest(args, kwargs, result, counts):
    counts["manifest.file_digest.bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _count_hash(args, kwargs, result, counts):
    counts["kernels.hash_ngrams.tokens"] += len(_arg(args, kwargs, 0, "tokens"))


def _count_logits(args, kwargs, result, counts):
    counts["kernels.csr_logits.nnz"] += len(_arg(args, kwargs, 1, "indices"))


def _count_grad(args, kwargs, result, counts):
    indices = np.asarray(_arg(args, kwargs, 1, "indices"))
    out = _arg(args, kwargs, 4, "out")
    counts["kernels.csr_grad_weights.nnz"] += indices.size
    counts["kernels.csr_grad_weights.out_bytes"] += out.nbytes
    counts["kernels.csr_grad_weights.touched_rows"] += np.unique(indices).size
    counts["kernels.csr_grad_weights.out_rows"] += out.shape[0]


def install(tracer: Tracer) -> None:
    """Put the wrappers on the names callers resolve."""
    from polarpipe import _kernels, calibration, cli, linear_model, metrics

    targets = [
        (cli, "load_dataset", "corpus.load_dataset", _count_load),
        (cli, "save_dataset", "corpus.save_dataset", None),
        (cli, "stratified_split", "splitter.split", None),
        (cli, "iterative_stratified_split", "splitter.split", None),
        (cli, "train", "linear_model.train", _count_train),
        (cli, "predict_proba", "linear_model.predict_proba", None),
        (cli, "save_model", "linear_model.save_model", _count_model_file("save_model")),
        (cli, "load_model", "linear_model.load_model", _count_model_file("load_model")),
        (cli, "save_probabilities", "probs.save_probabilities", None),
        (cli, "load_probabilities", "probs.load_probabilities", None),
        (cli, "file_digest", "manifest.file_digest", _count_digest),
        (linear_model, "featurize_all", "linear_model.featurize_all", _count_featurize),
        (calibration, "tune", "calibration.tune", None),
        (metrics, "evaluate", "metrics.evaluate", None),
        (_kernels, "hash_ngrams", "kernels.hash_ngrams", _count_hash),
        (_kernels, "csr_logits", "kernels.csr_logits", _count_logits),
        (_kernels, "csr_grad_weights", "kernels.csr_grad_weights", _count_grad),
        (_kernels, "sweep_confusion", "kernels.sweep_confusion", None),
    ]
    for module, attr, name, count in targets:
        fn = getattr(module, attr, None)
        if fn is None:
            print(f"tracer: {module.__name__}.{attr} not found; {name} stays empty", file=sys.stderr)
            continue
        setattr(module, attr, tracer.wrap(name, fn, count))


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    from polarpipe import cli

    try:
        return cli.run(cli_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "counts": dict(tracer.counts)}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
