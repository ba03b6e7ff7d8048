"""Outside-in span tracing of the protobank modules.

`Tracer.install()` replaces every public function the per-layer table
names with a timing wrapper. A name imported with `from ... import`
is a second reference to the same function object, so the wrapper is bound
at every place any loaded module holds that object (for example
`protobank.pretrain.embed_batch` and `protobank.adapt.embed_batch` as well
as `protobank.encoder.embed_batch`), not only in the defining module.
`uninstall()` puts the original objects back at the same places.

Each call records one span: id, parent span id, name, operation id, start
and end (ns), a flag saying whether a span of the same name encloses it,
and the work counters its hook extracts. Spans stay in memory; `write()`
dumps them as JSON lines when the run ends. Per-layer metrics are computed
from the spans of measured operations, as a mean per operation.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import sys
import threading
import time

# Forward ops of the autodiff engine that the per-layer table names.
NUMERIC_OPS = (
    "conv2d",
    "outer",
    "matmul",
    "relu",
    "tanh",
    "sigmoid",
    "softmax",
    "reduce_mean",
    "reduce_sum",
    "exp",
    "log",
    "l2_normalize",
    "gather_rows",
    "concat",
    "bce",
)

LAYERS = ("declarations", "numerics", "encoder", "pretrain", "bank", "container", "adapt",
          "evaluation")


def _best_epoch_share(curve, key):
    """Useful epochs (up to and including the best validation epoch) / epochs run."""
    values = [row[key] for row in curve]
    finite = [(v, i) for i, v in enumerate(values) if v == v]  # NaN marks a fallback epoch
    if not finite:
        return {}
    best = max(finite, key=lambda vi: (vi[0], -vi[1]))[1]
    return {"best_epoch_share": (best + 1) / len(values)}


# Work counters: hook(args, kwargs, result, error) -> {counter: value}.
# `result` is None when the call raised.


def _rows(a, k, r, e):
    return {"rows": len(r)} if r is not None else {}


def _records(a, k, r, e):
    return {"records": len(a[1] if len(a) > 1 else k["records"])}


def _pretrain_epochs(a, k, r, e):
    return _best_epoch_share(r[1], "valid_revenue") if r is not None else {}


def _finetune_epochs(a, k, r, e):
    return _best_epoch_share(r[1], "valid_metric") if r is not None else {}


def _kmeans_work(a, k, r, e):
    return {"points": len(a[0]), "iters": r.n_iters} if r is not None else {}


def _put(a, k, r, e):
    data = a[1] if len(a) > 1 else k["prototype_set"]
    return {"bytes_put": len(data) if isinstance(data, bytes) else 0,
            "rejected_puts": int(e is not None)}


def _got(a, k, r, e):
    return {"bytes_got": sum(map(len, r))} if r is not None else {}


def _encoded(a, k, r, e):
    return {"bytes": len(r)} if r is not None else {}


def _decoded(a, k, r, e):
    return {"bytes": len(a[0] if a else k["data"])}


def _bank_rows(a, k, r, e):
    memory = a[1] if len(a) > 1 else k["memory"]
    return {"bank_rows": len(memory) if hasattr(memory, "entries") else memory.shape[0]}


# span name -> (protobank module, attribute, work counter hook);
# a dotted attribute names a method of a class in that module.
TRACED = {
    "declarations.load_csv": ("declarations", "load_csv", _rows),
    "declarations.split": ("declarations", "split", None),
    "declarations.mask_labels": ("declarations", "mask_labels", None),
    "declarations.generate_world": ("declarations", "generate_world", None),
    **{f"numerics.{op}": ("numerics", op, None) for op in NUMERIC_OPS},
    "numerics.backward": ("numerics", "Tensor.backward", None),
    "numerics.opt_step": ("numerics", "opt_step", None),
    "encoder.batch_inputs": ("encoder", "batch_inputs", _records),
    "encoder.embed_batch": ("encoder", "embed_batch", None),
    "encoder.embed_matrix": ("encoder", "embed_matrix", None),
    "encoder.score_records": ("encoder", "score_records", None),
    "pretrain.pretrain": ("pretrain", "pretrain", _pretrain_epochs),
    "pretrain.scl_loss": ("pretrain", "scl_loss", None),
    "pretrain.select_fraud_like": ("pretrain", "select_fraud_like", None),
    "bank.kmeans": ("bank", "kmeans", _kmeans_work),
    "bank.extract_prototypes": ("bank", "extract_prototypes", None),
    "bank.client_put": ("bank", "BankClient.put", _put),
    "bank.client_get": ("bank", "BankClient.get", _got),
    "container.serialize": ("container", "serialize", _encoded),
    "container.deserialize": ("container", "deserialize", _decoded),
    "adapt.finetune": ("adapt", "finetune", _finetune_epochs),
    "adapt.target_forward": ("adapt", "target_forward", None),
    "adapt.memory_attend": ("adapt", "memory_attend", _bank_rows),
    "adapt.score_records": ("adapt", "score_records", None),
    "evaluation.revenue_at_k": ("evaluation", "revenue_at_k", None),
}

SETUP = "setup"
CHECK = "check"


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    # -- operation scoping ----------------------------------------------------

    def _state(self):
        loc = self._local
        if not hasattr(loc, "stack"):
            loc.stack, loc.op = [], SETUP
        return loc

    def set_op(self, op_id) -> None:
        """Spans recorded by this thread from now on belong to operation `op_id`."""
        self._state().op = op_id

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, fn, name, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = self._state()
            parent = st.stack[-1] if st.stack else (0, "")
            nested = any(n == name for _, n in st.stack)
            sid = next(self._ids)
            st.stack.append((sid, name))
            result = error = None
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                t1 = time.perf_counter_ns()
                st.stack.pop()
                work = hook(args, kwargs, result, error) if hook else None
                self.spans.append((sid, parent[0], name, st.op, t0, t1, nested, work))

        return traced

    def install(self) -> list[str]:
        """Wrap every traced function at every binding; returns the binding sites.

        Every loaded module is searched, so the benchmark's own imports and
        `from ... import` copies inside protobank are wrapped alike.
        """
        import protobank  # noqa: F401 - loads every submodule the package imports
        import protobank.cli  # noqa: F401 - its imported names are bindings too

        sites = []
        for name, (mod_name, attr, hook) in TRACED.items():
            owner = sys.modules[f"protobank.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._rebind(cls, meth, orig, self._wrap(orig, name, hook))
                sites.append(f"{owner.__name__}.{attr}")
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(orig, name, hook)
            for mod in list(sys.modules.values()):
                for key, value in list(getattr(mod, "__dict__", {}).items()):
                    if value is orig:
                        self._rebind(mod, key, orig, wrapper)
                        sites.append(f"{mod.__name__}.{key}")
        return sites

    def _rebind(self, owner, key, orig, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._restore.append((owner, key, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    # -- output ---------------------------------------------------------------

    def write(self, path) -> None:
        keys = ("id", "parent", "name", "op", "start_ns", "end_ns", "nested", "work")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")

    def layer_metrics(self, n_ops: int) -> dict[str, float]:
        """Per-layer metrics, as a mean over the `n_ops` measured operations unless noted.

        Spans of set-up and of output checks are not part of any operation.
        """
        n_ops = max(1, n_ops)
        child_ns: dict[int, int] = {}
        for sid, parent, _, _, t0, t1, _, _ in self.spans:
            if parent:
                child_ns[parent] = child_ns.get(parent, 0) + (t1 - t0)
        incl: dict[str, float] = {}
        calls: dict[str, int] = {}
        work: dict[str, float] = {}
        self_s = dict.fromkeys(LAYERS, 0.0)
        per_call: dict[str, list[float]] = {}
        setup: dict[str, list[float]] = {}
        op_spans = 0
        for sid, _, name, op, t0, t1, nested, counters in self.spans:
            dur = (t1 - t0) / 1e9
            if op == SETUP:
                setup.setdefault(name, []).append(dur)
                continue
            if op == CHECK:
                continue
            op_spans += 1
            calls[name] = calls.get(name, 0) + 1
            if not nested:
                incl[name] = incl.get(name, 0.0) + dur
            self_s[name.split(".")[0]] += dur - child_ns.get(sid, 0) / 1e9
            if name in ("bank.client_put", "bank.client_get"):
                per_call.setdefault(name, []).append(dur)
            for key, value in (counters or {}).items():
                if key in ("bank_rows", "best_epoch_share"):
                    per_call.setdefault(f"{name}:{key}", []).append(value)
                else:
                    work[key] = work.get(key, 0.0) + value

        def total(name):
            return incl.get(name, 0.0) / n_ops

        def count(name):
            return calls.get(name, 0) / n_ops

        def per_op(key):
            return work.get(key, 0.0) / n_ops

        def median(key, unit=1.0):
            values = per_call.get(key)
            return statistics.median(values) * unit if values else 0.0

        def mean(key):
            values = per_call.get(key)
            return statistics.fmean(values) if values else 0.0

        def setup_median(name):
            values = setup.get(name)
            return statistics.median(values) if values else 0.0

        m = {
            "declarations.load_csv_s": total("declarations.load_csv"),
            "declarations.split_s": total("declarations.split"),
            "declarations.mask_labels_s": total("declarations.mask_labels"),
            "declarations.generate_world_s": setup_median("declarations.generate_world"),
            "declarations.rows": per_op("rows"),
        }
        for op in NUMERIC_OPS:
            m[f"numerics.fwd_s.{op}"] = total(f"numerics.{op}")
            m[f"numerics.calls.{op}"] = count(f"numerics.{op}")
        m.update(
            {
                "numerics.backward_s": total("numerics.backward"),
                "numerics.opt_step_s": total("numerics.opt_step"),
                "numerics.opt_step_calls": count("numerics.opt_step"),
                "encoder.batch_inputs_s": total("encoder.batch_inputs"),
                "encoder.embed_batch_s": total("encoder.embed_batch"),
                "encoder.embed_matrix_s": total("encoder.embed_matrix"),
                "encoder.score_records_s": total("encoder.score_records"),
                "encoder.records": per_op("records"),
                "pretrain.pretrain_s": total("pretrain.pretrain"),
                "pretrain.scl_loss_s": total("pretrain.scl_loss"),
                "pretrain.select_fraud_like_s": total("pretrain.select_fraud_like"),
                "pretrain.best_epoch_share": mean("pretrain.pretrain:best_epoch_share"),
                "bank.kmeans_s": total("bank.kmeans"),
                "bank.kmeans_calls": count("bank.kmeans"),
                "bank.kmeans_points": per_op("points"),
                "bank.kmeans_iters": per_op("iters"),
                "bank.extract_prototypes_s": total("bank.extract_prototypes"),
                "bank.client_put_ms": median("bank.client_put", 1e3),
                "bank.client_get_ms": median("bank.client_get", 1e3),
                "bank.bytes_put": per_op("bytes_put"),
                "bank.bytes_got": per_op("bytes_got"),
                "bank.rejected_puts": per_op("rejected_puts"),
                "container.serialize_s": total("container.serialize"),
                "container.deserialize_s": total("container.deserialize"),
                "container.bytes": per_op("bytes"),
                "adapt.finetune_s": total("adapt.finetune"),
                "adapt.best_epoch_share": mean("adapt.finetune:best_epoch_share"),
                "adapt.target_forward_s": total("adapt.target_forward"),
                "adapt.memory_attend_s": total("adapt.memory_attend"),
                "adapt.memory_attend_calls": count("adapt.memory_attend"),
                "adapt.bank_rows": median("adapt.memory_attend:bank_rows"),
                "adapt.score_records_s": total("adapt.score_records"),
                "evaluation.revenue_at_k_s": total("evaluation.revenue_at_k"),
                "evaluation.revenue_at_k_calls": count("evaluation.revenue_at_k"),
            }
        )
        for layer in LAYERS:
            m[f"{layer}.self_s"] = self_s[layer] / n_ops
        m["trace.spans_per_op"] = op_spans / n_ops
        return m
