"""Spans and counters recorded around the calls into each layer of vwpstory.

The tracer patches module attributes from the outside, so the program itself
carries no tracing code. Each patched name is looked up where the caller
finds it (``decoding.forward_logits`` and ``model.forward_logits`` are two
bindings of one function), and every binding maps to one metric name.

A span records its name, start, end, parent span and the id of the workload
operation it belongs to. Spans stay in memory (as columns) until ``dump``.
Self time is a span's duration minus the time its child spans cover; in one
thread children never overlap, so that is the sum of their durations.
"""

from __future__ import annotations

import gzip
import json
import os
from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# (module, attribute, metric name): every binding a caller looks up.
SPAN_TARGETS = [
    ("numerics", "matmul", "numerics.matmul"),
    ("numerics", "layer_norm", "numerics.layer_norm"),
    ("numerics", "softmax", "numerics.softmax"),
    ("numerics", "gelu", "numerics.gelu"),
    ("numerics", "embedding", "numerics.embedding"),
    ("numerics", "cross_entropy_masked", "numerics.cross_entropy_masked"),
    ("numerics", "add", "numerics.add"),
    ("numerics", "mul", "numerics.add"),
    ("numerics", "narrow_cols", "numerics.slice_concat"),
    ("numerics", "concat_cols", "numerics.slice_concat"),
    ("numerics", "concat_rows", "numerics.slice_concat"),
    ("numerics", "transpose", "numerics.slice_concat"),
    ("numerics.Tensor", "backward", "numerics.backward"),
    ("training", "adam_step", "numerics.adam_step"),
    ("training", "clip_global_norm", "numerics.clip_global_norm"),
    ("model", "assemble_input", "model.assemble_input"),
    ("decoding", "assemble_input", "model.assemble_input"),
    ("model", "forward_logits", "model.forward_logits"),
    ("decoding", "forward_logits", "model.forward_logits"),
    ("training", "story_loss", "model.story_loss"),
    ("model", "save_checkpoint", "model.save_checkpoint"),
    ("training", "save_checkpoint", "model.save_checkpoint"),
    ("model", "load_checkpoint", "model.load_checkpoint"),
    ("model", "grid_for_mode", "chargrid.grid_for_mode"),
    ("decoding", "generate", "decoding.generate"),
    ("training", "generate", "decoding.generate"),
    ("decoding", "nucleus_sample", "decoding.nucleus_sample"),
    ("training", "train_epoch", "training.train_epoch"),
    ("training", "validate_meteor", "training.validate_meteor"),
    ("metrics", "load_eval_pairs", "metrics.load_eval_pairs"),
    ("metrics", "bleu_corpus", "metrics.bleu_corpus"),
    ("metrics", "meteor", "metrics.meteor"),
    ("metrics", "rouge_l", "metrics.rouge_l"),
    ("metrics", "cider", "metrics.cider"),
    ("corpus", "prepare_records", "corpus.prepare_records"),
    ("corpus", "load_dataset", "corpus.load_dataset"),
    ("analytics", "load_annotated", "analytics.load_annotated"),
    ("analytics", "train_entity_grid", "analytics.train_entity_grid"),
    ("analytics", "score_coherence", "analytics.score_coherence"),
    ("analytics", "jaccard_similarity", "analytics.jaccard_similarity"),
    ("analytics", "event_diversity", "analytics.event_diversity"),
    ("analytics", "corpus_stats", "analytics.corpus_stats"),
]

SPAN_NAMES = sorted({name for _, _, name in SPAN_TARGETS})

# Extra additive counts, reported like calls (one set-up plus one operation).
COUNT_NAMES = [
    "numerics.matmul.gflop",
    "model.forward_logits.positions",
    "model.save_checkpoint.bytes",
    "decoding.tokens",
    "decoding.stop_eos",
    "decoding.stop_budget",
    "training.examples",
]

OP_SPAN = "op"


class Tracer:
    def __init__(self):
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.stack: list[int] = []
        self.child_time: list[float] = []
        self.depth: dict[str, int] = defaultdict(int)
        self.phase = "setup"
        self.op_id = -1
        # per phase: name -> calls / self seconds / counts
        self.calls = {"setup": defaultdict(int), "ops": defaultdict(int)}
        self.self_s = {"setup": defaultdict(float), "ops": defaultdict(float)}
        self.counts = {"setup": defaultdict(float), "ops": defaultdict(float)}
        # op-phase quantities that feed the ratio metrics
        self.tensors_in = defaultdict(int)   # outer span name -> Tensor constructions
        self.stem_in_meteor = 0
        self.meteor_pairs = 0
        self.decode_positions = 0
        self.grid_records: dict[int, set] = defaultdict(set)
        self.grid_calls: dict[int, int] = defaultdict(int)

    # -- spans -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.name_ids)
        return self.name_ids[name]

    def _open(self, name: str) -> int:
        idx = len(self.span_start)
        self.span_name.append(self._name_id(name))
        self.span_start.append(perf_counter())
        self.span_end.append(0.0)
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_op.append(self.op_id)
        self.stack.append(idx)
        self.child_time.append(0.0)
        self.depth[name] += 1
        return idx

    def _close(self, name: str, idx: int) -> None:
        end = perf_counter()
        self.span_end[idx] = end
        self.stack.pop()
        self.depth[name] -= 1
        duration = end - self.span_start[idx]
        child = self.child_time.pop()
        if self.child_time:
            self.child_time[-1] += duration
        self.calls[self.phase][name] += 1
        self.self_s[self.phase][name] += duration - child

    @contextmanager
    def setting_up(self, op_id: int):
        """The set-up before operation ``op_id``: its spans have no parent."""
        self.phase, self.op_id = "setup", op_id
        yield

    @contextmanager
    def operation(self, op_id: int):
        """A workload operation: the root span its layer spans hang under."""
        self.phase, self.op_id = "ops", op_id
        idx = self._open(OP_SPAN)
        try:
            yield
        finally:
            self._close(OP_SPAN, idx)

    def count(self, name: str, amount: float) -> None:
        self.counts[self.phase][name] += amount

    def wrap(self, name: str, fn):
        observe = self._observers().get(name)

        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, idx)
            if observe is not None:
                observe(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- per-call observations (counts measured where the work happens) ---

    def _observers(self) -> dict:
        return {
            "numerics.matmul": self._matmul_flops,
            "model.forward_logits": self._forward_positions,
            "model.save_checkpoint": self._checkpoint_bytes,
            "decoding.generate": self._decode_stop,
            "training.train_epoch": self._epoch_examples,
            "chargrid.grid_for_mode": self._grid_record,
            "metrics.meteor": self._meteor_pairs,
        }

    def _matmul_flops(self, args, result):
        (m, k), n = args[0].data.shape, args[1].data.shape[1]
        self.count("numerics.matmul.gflop", 2.0 * m * k * n / 1e9)

    def _forward_positions(self, args, result):
        positions = args[1].length
        self.count("model.forward_logits.positions", positions)
        if self.phase == "ops" and self.depth["decoding.generate"]:
            self.decode_positions += positions

    def _checkpoint_bytes(self, args, result):
        self.count("model.save_checkpoint.bytes", os.path.getsize(args[1]))

    def _decode_stop(self, args, result):
        model, config = args[0], args[3]
        budget = min(config.max_new_tokens, model.config.t_max - 1)
        self.count("decoding.tokens", len(result.token_ids))
        stop = "budget" if len(result.token_ids) == budget else "eos"
        self.count("decoding.stop_" + stop, 1)

    def _epoch_examples(self, args, result):
        records = args[1]
        self.count("training.examples",
                   sum(1 for rec in records for story in rec.stories if story.tokens))

    def _grid_record(self, args, result):
        if self.phase == "ops":
            self.grid_calls[self.op_id] += 1
            self.grid_records[self.op_id].add(args[0].id)

    def _meteor_pairs(self, args, result):
        if self.phase == "ops":
            self.meteor_pairs += len(args[0])

    # -- installation -----------------------------------------------------

    @contextmanager
    def installed(self, modules: dict):
        """Patch every target while the block runs; restore on exit."""
        saved = []
        for module_name, attr, name in SPAN_TARGETS:
            owner = _resolve(modules, module_name)
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original))

        stem_owner = modules["metrics"]
        stem_original = stem_owner.stem

        def counted_stem(word):
            if self.phase == "ops" and self.depth["metrics.meteor"]:
                self.stem_in_meteor += 1
            return stem_original(word)

        tensor = modules["numerics"].Tensor
        init_original = tensor.__init__

        def counted_init(obj, *args, **kwargs):
            if self.phase == "ops":
                for outer in ("training.train_epoch", "decoding.generate"):
                    if self.depth[outer]:
                        self.tensors_in[outer] += 1
            init_original(obj, *args, **kwargs)

        saved += [(stem_owner, "stem", stem_original), (tensor, "__init__", init_original)]
        stem_owner.stem = counted_stem
        tensor.__init__ = counted_init
        try:
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def layer_metrics(self, n_ops: int, traced_wall_s: float) -> dict[str, float]:
        """Per-layer values for one set-up plus one operation, and ratios
        over the operation phase. A layer that did not run reads 0."""
        out: dict[str, float] = {}

        def per_unit(table: dict, name: str) -> float:
            return (table["setup"].get(name, 0) + table["ops"].get(name, 0)) / n_ops

        for name in SPAN_NAMES:
            out[name + ".calls"] = per_unit(self.calls, name)
            out[name + ".s"] = per_unit(self.self_s, name)
        for name in COUNT_NAMES:
            out[name] = per_unit(self.counts, name)
        ops = self.counts["ops"]
        examples = ops.get("training.examples", 0)
        sampled = ops.get("decoding.tokens", 0) + ops.get("decoding.stop_eos", 0)
        out["numerics.tensors_per_example"] = _ratio(self.tensors_in["training.train_epoch"],
                                                     examples)
        out["numerics.tensors_per_token"] = _ratio(self.tensors_in["decoding.generate"], sampled)
        out["decoding.positions_per_token"] = _ratio(self.decode_positions, sampled)
        out["stem.calls_per_pair"] = _ratio(self.stem_in_meteor, self.meteor_pairs)
        per_op = [_ratio(self.grid_calls[op], len(self.grid_records[op])) for op in self.grid_calls]
        out["chargrid.grids_per_record"] = sum(per_op) / len(per_op) if per_op else 0.0
        out["trace.top_level_coverage_pct"] = 100.0 * _ratio(self.top_level_seconds(),
                                                             traced_wall_s)
        return out

    def top_level_seconds(self) -> float:
        """Time covered by layer spans whose parent is an operation span."""
        op_name = self.name_ids.get(OP_SPAN)
        total = 0.0
        for i in range(len(self.span_start)):
            parent = self.span_parent[i]
            if parent >= 0 and self.span_name[parent] == op_name:
                total += self.span_end[i] - self.span_start[i]
        return total

    def dump(self, path) -> None:
        """Write every span as one JSON line (gzip): name, start, end,
        parent index (-1 for none), operation id."""
        names = {i: n for n, i in self.name_ids.items()}
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for i in range(len(self.span_start)):
                fh.write(json.dumps([names[self.span_name[i]], self.span_start[i],
                                     self.span_end[i], self.span_parent[i],
                                     self.span_op[i]]) + "\n")

    @property
    def n_spans(self) -> int:
        return len(self.span_start)



def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _resolve(modules: dict, dotted: str):
    head, _, attr = dotted.partition(".")
    owner = modules[head]
    return getattr(owner, attr) if attr else owner
