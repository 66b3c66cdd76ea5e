"""Spans around calls into the package, recorded from the benchmark.

A wrapped function is replaced on the module (or class) whose name the
caller looks up, e.g. `energyfuse.train.forward_pass` is the name
`train` calls, and put back when the unit ends. A span is (name, start,
end, parent index); spans of one unit share its run id. A layer's self
time is its spans' durations minus the part their child spans cover.
"""

import importlib
import time
from collections import Counter

from workloads import run_config

STEP = "energyfuse.train._train_step"
CHECK_FINITE = "energyfuse.train.check_finite"
EVALUATE = "energyfuse.metrics.evaluate"
ROOT = "bench.unit"
INSPECT = "bench.inspect"  # counter collection; excluded from every layer

# Binding -> layer. `eb2f_apply` is split by the forward pass that calls it.
# The self time of a step belongs to no layer except its inline SGD update,
# which is given to train.update (see sgd_intervals).
LAYER_OF = {
    "energyfuse.metrics.build_data": "scenes.build_data",
    "energyfuse.metrics.build_model": "model.init",
    "energyfuse.train.forward_pass": "model.forward",
    "energyfuse.metrics.forward_pass": "model.infer_forward",
    "energyfuse.model.eb2f_apply": "fusion.eb2f",
    "energyfuse.train.seg_nll": "objectives.loss",
    "energyfuse.train.berhu_loss": "objectives.loss",
    "energyfuse.train.pseudo_label": "objectives.loss",
    "energyfuse.train.four_term_total": "objectives.loss",
    "energyfuse.train.supervised_loss": "objectives.loss",
    "energyfuse.train.overall_loss": "objectives.loss",
    "energyfuse.train.free_energy_map": "reliability.rfa",
    "energyfuse.train.depth_energy_map": "reliability.rfa",
    "energyfuse.train.reliability_mask": "reliability.rfa",
    "energyfuse.train.rfa_seg_loss": "reliability.rfa",
    "energyfuse.train.rfa_dep_loss": "reliability.rfa",
    "energyfuse.train.rfa_total": "reliability.rfa",
    "energyfuse.train.DiffGraph.backward": "autodiff.backward",
    STEP: "train.step",
    "energyfuse.train.bind": "train.update",
    CHECK_FINITE: "train.update",
    "energyfuse.train.compute_losses": "train.losses_glue",
    EVALUATE: "metrics.evaluate",
    "energyfuse.metrics.run_experiment": "sweep.run",
    "energyfuse.sweep.write_metrics_csv": "sweep.csv_write",
    "energyfuse.sweep.write_loss_trace_csv": "sweep.csv_write",
}

# Layers timed per training step; reliability runs in phase 2 only.
STEP_LAYERS = (
    "model.forward",
    "fusion.eb2f",
    "objectives.loss",
    "reliability.rfa",
    "autodiff.backward",
    "train.update",
    "train.losses_glue",
)
EVAL_LAYERS = ("model.infer_forward", "fusion.eb2f_infer", "metrics.evaluate")
NODE_OPS = ("matmul", "transpose", "const", "softmax_cols", "scale", "add")
# Largest share of a step's wall time that may lie outside every layer of
# the map: the self time of the glue that calls the layers, that is of the
# step less its inline SGD update, and of compute_losses. A binding left
# out of the map puts its time there.
STEP_GAP = 0.10


def resolve(path: str):
    """(owner, attribute) for a dotted binding such as `pkg.mod.Class.fn`."""
    parts = path.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for name in parts[cut:-1]:
            owner = getattr(owner, name)
        return owner, parts[-1]
    raise ModuleNotFoundError(path)


def bindings_snapshot() -> dict:
    """The object behind every binding the tracer may wrap."""
    return {path: getattr(*resolve(path)) for path in LAYER_OF}


def _tape(tracer, args, kwargs, result):
    nodes = args[0].nodes
    ops = Counter(node.op for node in nodes)
    nbytes = sum(node.data.nbytes for node in nodes)
    flops = 0
    for node in nodes:
        if node.op == "matmul":
            m, k = nodes[node.inputs[0]].data.shape
            n = nodes[node.inputs[1]].data.shape[1]
            flops += 2 * m * k * n
    tracer.samples["tape"].append((len(nodes), ops, nbytes, flops))


def _mask_of(args, kwargs):
    return args[2] if len(args) > 2 else kwargs["mask"]


def _seg_mask(tracer, args, kwargs, result):
    mask = _mask_of(args, kwargs)
    tracer.samples["wins.seg"].append((mask.count, mask.size))


def _dep_mask(tracer, args, kwargs, result):
    mask = _mask_of(args, kwargs)
    tracer.samples["wins.dep"].append((mask.count, mask.size))


def _pseudo(tracer, args, kwargs, result):
    from energyfuse.objectives import IGNORE

    labels = result.labels
    tracer.samples["pseudo"].append((int((labels != IGNORE).sum()), labels.size))


INSPECTORS = {
    "energyfuse.train.DiffGraph.backward": _tape,
    "energyfuse.train.rfa_seg_loss": _seg_mask,
    "energyfuse.train.rfa_dep_loss": _dep_mask,
    "energyfuse.train.pseudo_label": _pseudo,
}


class Tracer:
    """Wraps bindings for one unit of work and records its spans."""

    def __init__(self, run_id: str, bindings, after=None):
        self.run_id = run_id
        self._after = after  # called when a wrapped call returns, outside its span
        self.spans = []  # [name, start, end, parent index or -1]
        self.samples = {"tape": [], "wins.seg": [], "wins.dep": [], "pseudo": []}
        self._bindings = tuple(bindings)
        self._stack = []
        self._patches = []

    def begin(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), None, parent])

    def end(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def _wrap(self, path: str):
        owner, attr = resolve(path)
        original = getattr(owner, attr)
        inspect = INSPECTORS.get(path)

        def traced(*args, **kwargs):
            self.begin(path)
            try:
                result = original(*args, **kwargs)
            finally:
                self.end()
            if inspect is not None:
                self.begin(INSPECT)
                try:
                    inspect(self, args, kwargs, result)
                finally:
                    self.end()
            if self._after is not None:
                self._after()
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def __enter__(self):
        try:
            for path in self._bindings:
                self._wrap(path)
        except BaseException:
            self._restore()
            raise
        self.begin(ROOT)
        return self

    def __exit__(self, *exc):
        self.end()
        self._restore()
        return False

    def _restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def durations(self, name: str) -> list:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def export(self) -> list:
        """Spans as dicts: name, start, end, parent, run."""
        return [
            dict(name=n, start=s, end=e, parent=p, run=self.run_id)
            for n, s, e, p in self.spans
        ]


def self_times(spans: list) -> list:
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, start, end, _) in enumerate(spans)]


def sgd_intervals(spans: list) -> list:
    """The inline SGD update of each step: from the end of the step's last
    call before `check_finite` to the start of `check_finite`."""
    last_end = {}
    out = []
    for name, start, end, parent in spans:
        if name == CHECK_FINITE and spans[parent][0] == STEP:
            out.append(start - last_end[parent])
        last_end[parent] = end
    return out


def layer_of(spans: list, i: int) -> str:
    name, _, _, parent = spans[i]
    if name in (ROOT, INSPECT):
        return name
    layer = LAYER_OF[name]
    if layer == "fusion.eb2f" and spans[parent][0] == "energyfuse.metrics.forward_pass":
        return "fusion.eb2f_infer"
    return layer


def _ratio(pairs: list) -> float:
    return sum(a for a, _ in pairs) / sum(b for _, b in pairs)


def unit_layers(tracer: Tracer, workload: str) -> tuple:
    """Per-layer metrics of one traced unit and its accounting problems.

    Times are self times in ms: per training step for STEP_LAYERS (per
    phase-2 step for reliability), per `evaluate` call for EVAL_LAYERS,
    and per unit (one run) for set-up, sweep.run and the CSV writers.
    Counts are means per step over the unit's tapes.
    """
    spans = tracer.spans
    own = self_times(spans)
    totals = Counter()
    for i in range(len(spans)):
        totals[layer_of(spans, i)] += own[i]
    sgd = sum(sgd_intervals(spans))
    totals["train.update"] += sgd
    unowned = totals["train.step"] - sgd + totals["train.losses_glue"]
    problems = []
    cfg = run_config(workload, 0)
    n_steps = len(tracer.durations(STEP))
    n_phase2 = cfg.t2
    n_eval = len(tracer.durations(EVALUATE))
    if n_steps != cfg.t1 + cfg.t2 or n_eval != 1:
        problems.append(f"{n_steps} steps and {n_eval} evaluations traced")

    out = {}
    for layer in STEP_LAYERS:
        per = n_phase2 if layer == "reliability.rfa" else n_steps
        out[f"{layer}_ms"] = 1e3 * totals[layer] / per
    for layer in EVAL_LAYERS:
        out[f"{layer}_ms"] = 1e3 * totals[layer] / n_eval
    out["scenes.build_data_ms"] = 1e3 * totals["scenes.build_data"]
    out["model.init_ms"] = 1e3 * totals["model.init"]
    out["sweep.run_ms"] = 1e3 * totals["sweep.run"]
    out["sweep.csv_write_ms"] = 1e3 * totals["sweep.csv_write"]

    tapes = tracer.samples["tape"]
    out["autodiff.tape_nodes"] = sum(t[0] for t in tapes) / len(tapes)
    for op in NODE_OPS:
        out[f"autodiff.nodes.{op}"] = sum(t[1][op] for t in tapes) / len(tapes)
    out["autodiff.tape_bytes"] = sum(t[2] for t in tapes) / len(tapes)
    out["autodiff.matmul_flops"] = sum(t[3] for t in tapes) / len(tapes)
    out["reliability.fused_wins_frac.seg"] = _ratio(tracer.samples["wins.seg"])
    out["reliability.fused_wins_frac.dep"] = _ratio(tracer.samples["wins.dep"])
    out["objectives.pseudo_label_coverage"] = _ratio(tracer.samples["pseudo"])
    out["trace.step_gap_frac"] = unowned / sum(tracer.durations(STEP))
    return out, problems
