"""Run one ``seizenet`` CLI stage with timing wrappers around its layers.

Usage: python3 tracer.py <trace.json> <stage> [stage args...]

The wrappers live here, outside the program: each replaces a public
function or method of a ``seizenet`` module, and every module-level name
bound to it, before ``seizenet.cli.main`` runs.  They record the inclusive
time and call count of each span, a few counts (windows, bytes, tape
nodes), and the time covered by outermost spans, and write it all as one
JSON file when the stage ends.  Results the stage writes are unchanged.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict

# (module, attribute, span name); "Class.method" patches a class attribute.
SPANS = [
    ("synthgen", "generate_recording", "synthgen.generate_recording"),
    ("eegio", "write_edf", "eegio.write_edf"),
    ("eegio", "load_corpus", "eegio.load_corpus"),
    ("eegio", "windows_from_recordings", "eegio.windows_from_recordings"),
    ("preprocess", "preprocess_recording_samples", "preprocess.bandpass"),
    ("preprocess", "normalize", "preprocess.normalize"),
    ("training", "prepare_recordings", "training.prepare_recordings"),
    ("model", "encode", "model.encode"),
    ("model", "transformer_forward", "model.transformer"),
    ("model", "classify", "model.classify"),
    ("nn.ops", "linear", "nn.linear_fwd"),
    ("nn.ops", "layer_norm", "nn.layer_norm_fwd"),
    ("nn.ops", "multi_head_attention", "nn.attention_fwd"),
    ("nn.tensor", "Tensor.backward", "nn.backward"),
    ("nn.checkpoint", "save_checkpoint", "nn.save_checkpoint"),
    ("nn.checkpoint", "load_checkpoint", "nn.load_checkpoint"),
    ("objectives", "contrastive_loss", "objectives.contrastive_loss"),
    ("objectives", "sswce_loss", "objectives.sswce_loss"),
    ("optim", "adam_step", "optim.adam_step"),
    ("rand", "Rng.__init__", "rand.rng"),
    ("evalpost", "score_track", "evalpost.score_track"),
    ("evalpost", "postprocess_labels", "evalpost.postprocess_labels"),
    ("cli", "_write_atomic", "cli.write_atomic"),
]

# Conv-block ops: inside model.encode each block runs conv1d, [dropout],
# group_norm, gelu, so the n-th conv1d of an encode call opens block n.
BLOCK_OPS = [
    ("nn.ops", "conv1d", "nn.conv1d_fwd"),
    ("nn.ops", "dropout", "nn.dropout_fwd"),
    ("nn.ops", "group_norm", "nn.group_norm_fwd"),
    ("nn.ops", "gelu", "nn.gelu_fwd"),
]

# Forward passes, split by their ``training`` argument.
FORWARDS = [
    ("model", "forward_classifier"),
    ("model", "forward_pretrain"),
]


class Tracer:
    def __init__(self):
        self.spans = defaultdict(lambda: [0.0, 0])  # name -> [seconds, calls]
        self.counts = defaultdict(int)
        self.covered_s = 0.0
        self.depth = 0
        self.eval_depth = 0
        self.block = None  # conv block index while inside model.encode

    def _record(self, names, start):
        dt = time.perf_counter() - start
        for name in names:
            rec = self.spans[name]
            rec[0] += dt
            rec[1] += 1
        if self.depth == 0:
            self.covered_s += dt
        return dt

    def span(self, name, fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            self.depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self.depth -= 1
                self._record((name,), start)

        return wrapper

    def encode_span(self, name, fn):
        inner = self.span(name, fn)

        def wrapper(*args, **kwargs):
            outer, self.block = self.block, -1
            try:
                return inner(*args, **kwargs)
            finally:
                self.block = outer

        return wrapper

    def block_op(self, name, fn, opens_block):
        def wrapper(*args, **kwargs):
            if opens_block and self.block is not None:
                self.block += 1
            names = (name,)
            if self.block is not None:
                names = (name, f"{name}.block{self.block}")
            start = time.perf_counter()
            self.depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self.depth -= 1
                self._record(names, start)

        return wrapper

    def forward(self, fn):
        signature = inspect.signature(fn)
        if not {"windows", "training"} <= set(signature.parameters):
            return None

        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            training = bound.arguments["training"]
            kind = "train" if training else "eval"
            self.counts[f"model.forward_{kind}_windows"] += len(
                bound.arguments["windows"]
            )
            start = time.perf_counter()
            self.depth += 1
            self.eval_depth += not training
            try:
                return fn(*args, **kwargs)
            finally:
                self.depth -= 1
                self.eval_depth -= not training
                self._record((f"model.forward_{kind}",), start)

        return wrapper

    def matrix(self, fn):
        inner = self.span("eegio.matrix", fn)

        def wrapper(*args, **kwargs):
            out = inner(*args, **kwargs)
            self.counts["eegio.matrix_calls"] += 1
            self.counts["eegio.matrix_bytes"] += out.nbytes
            return out

        return wrapper

    def counter(self, name, fn):
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def from_op(self, fn):
        def wrapper(data, parents, backward):
            out = fn(data, parents, backward)
            if out.requires_grad:
                self.counts["nn.tape_nodes"] += 1
                if self.eval_depth:
                    self.counts["nn.tape_nodes_eval"] += 1
            return out

        return wrapper

    def install(self) -> list[str]:
        """Patch every target; call after ``import seizenet.cli``.

        Returns the targets that no longer exist or no longer take the
        arguments a wrapper reads, so a refactor of the program shows up as
        a named gap in the trace, not as a crash.
        """
        missing = []

        def patch(module, attr, make):
            mod = sys.modules.get(f"seizenet.{module}")
            owner_name, _, meth = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            original = vars(owner).get(meth) if owner is not None else None
            static = isinstance(original, staticmethod)
            wrapped = None
            if original is not None:
                wrapped = make(original.__func__ if static else original)
            if wrapped is None:
                missing.append(f"{module}.{attr}")
                return
            if owner_name:
                setattr(owner, meth, staticmethod(wrapped) if static else wrapped)
                return
            # rebind every name that refers to the original, so modules
            # that imported it with ``from ... import`` call the wrapper
            for name, other in list(sys.modules.items()):
                if name == "seizenet" or name.startswith("seizenet."):
                    for key, value in list(vars(other).items()):
                        if value is original:
                            setattr(other, key, wrapped)

        for module, attr, name in SPANS:
            if attr == "encode":
                patch(module, attr, lambda f, n=name: self.encode_span(n, f))
            else:
                patch(module, attr, lambda f, n=name: self.span(n, f))
        for module, attr, name in BLOCK_OPS:
            patch(
                module,
                attr,
                lambda f, n=name: self.block_op(n, f, n == "nn.conv1d_fwd"),
            )
        for module, attr in FORWARDS:
            patch(module, attr, self.forward)
        patch("eegio", "WindowedDataset.matrix", self.matrix)
        patch(
            "eegio",
            "WindowedDataset.subset",
            lambda f: self.counter("eegio.subset_calls", f),
        )
        patch(
            "nn.tensor",
            "Tensor.accumulate_grad",
            lambda f: self.counter("nn.accumulate_grad_calls", f),
        )
        patch("nn.tensor", "Tensor.from_op", self.from_op)
        return missing

    def report(self, import_s: float, missing: list[str]) -> dict:
        return {
            "import_s": import_s,
            "missing": missing,
            "covered_s": self.covered_s + import_s,
            "spans": {k: v for k, v in sorted(self.spans.items())},
            "counts": dict(sorted(self.counts.items())),
        }


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import seizenet.cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    missing = tracer.install()
    code = 1
    try:
        code = seizenet.cli.main(argv)
    finally:
        with open(out_path, "w") as fh:
            json.dump({"exit_code": code, **tracer.report(import_s, missing)}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
