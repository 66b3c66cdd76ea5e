"""Executable invariant suite.

Every documented invariant runs here with its measured worst case and
tolerance; the CLI `verify` subcommand prints one line per check and
fails the process if any check fails. Kept importable so the test suite
can run the same checks.
"""

import functools
from dataclasses import dataclass

import numpy as np

from . import fusion
from .autodiff import (
    DiffGraph, central_differences, grad_check, relative_error, sum_all
)
from .config import RunConfig
from .fusion import eb2f_apply, fuse, hopfield_energy, hopfield_update
from .model import _dense, forward_pass, init_model
from .numeric import ColumnPass
from .objectives import (
    IGNORE, LabelMap, berhu_map, berhu_threshold, pseudo_label, seg_nll
)
from .reliability import (
    ReliabilityMask,
    _kl_row,
    depth_energy_map,
    energy_softmax_identity,
    free_energy_map,
    reliability_mask,
    rfa_dep_loss,
    rfa_seg_loss,
)
from .rng import RngState
from .scenes import gen_scene, shift_scene
from .train import step_gradients

MASTER_SEED = 20240915


@dataclass
class CheckResult:
    name: str
    worst: float
    tol: float
    passed: bool

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.name:<34} worst={self.worst:.3e}  tol={self.tol:.1e}"


@dataclass
class Report:
    results: list

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.results)

    def text(self) -> str:
        lines = [r.line() for r in self.results]
        n_fail = sum(1 for r in self.results if not r.passed)
        lines.append(
            f"{len(self.results)} checks, {n_fail} failing"
            if n_fail
            else f"{len(self.results)} checks, all passing"
        )
        return "\n".join(lines)


def _rng(tag: int) -> RngState:
    return RngState(MASTER_SEED, (tag,))


def _verdict(name: str, errors, tol: float) -> CheckResult:
    """The one pass rule: the worst of the per-case errors lies below tol,
    or is an exact 0 under a zero tol. The worst is taken with np.max, so
    one NaN case makes it NaN and fails the check."""
    worst = float(np.max(errors))
    return CheckResult(name, worst, tol, worst < tol or worst == tol == 0.0)


def _per_case(name: str, tag: int, n: int, tol: float):
    """Make a check of error(rng, i), the error of case i, over cases
    0..n-1 drawn in turn from stream `tag`."""

    def make(error):
        @functools.wraps(error)
        def check() -> CheckResult:
            rng = _rng(tag)
            return _verdict(name, [error(rng, i) for i in range(n)], tol)

        return check

    return make


def _patterns(rng: RngState, i: int, unit_norm: bool = False):
    d = 2 + i % 7
    m = 2 + i % 15
    xi = rng.normal(d, 1, 2.0)
    nu = rng.normal(d, m, 2.0)
    if unit_norm:
        nu = nu / np.linalg.norm(nu, axis=0, keepdims=True)
    return xi, nu


@_per_case("hopfield-two-form-identity", 1, 1000, 1e-12)
def check_two_form_identity(rng, i):
    """Damped retrieval equals the explicit gradient-descent form."""
    xi, nu = _patterns(rng, i)
    gamma = 0.25 + 0.75 * (i % 4) / 3.0
    a = hopfield_update(xi, nu, gamma, 1)
    b = xi - gamma * fusion.hopfield_gradient(xi, nu).reshape(-1, 1)
    return np.max(np.abs(a - b))


@_per_case("free-energy-softmax-identity", 2, 1000, 1e-12)
def check_energy_softmax_identity(rng, i):
    k = 2 + i % 15
    v = rng.uniform(-50.0, 50.0, k, 1).ravel()
    return energy_softmax_identity(v)[2]


@_per_case("seg-nll-equals-cross-entropy", 3, 200, 1e-12)
def check_seg_nll_is_cross_entropy(rng, i):
    k = 2 + i % 5
    cols = 1 + i % 12
    logits = rng.normal(k, cols, 3.0)
    labels = rng.integers(0, k, cols)
    labels[rng.uniform(0.0, 1.0, 1, cols).ravel() < 0.2] = IGNORE
    got = seg_nll(logits, LabelMap(labels), ColumnPass(logits))
    valid = labels != IGNORE
    want = 0.0
    if valid.any():
        picked = ColumnPass(logits).prob[labels[valid], np.nonzero(valid)[0]]
        want = float(np.mean(-np.log(picked)))
    return abs(got - want)


@_per_case("hopfield-gradient-vs-fd", 4, 100, 1e-6)
def check_hopfield_gradient_fd(rng, i):
    xi, nu = _patterns(rng, i)
    x = xi.ravel()
    fd = central_differences(lambda p: hopfield_energy(p, nu), x)
    return relative_error(fusion.hopfield_gradient(x, nu), fd)


def _tiny_setup(scheme: str):
    cfg = RunConfig(
        alpha=0.5,
        beta=1.0,
        gamma=0.7,
        steps=2,
        scheme=scheme,
        pseudo_threshold=0.0,
        h=3,
        w=3,
        k=3,
        channels=3,
        feature_shift=0.3,
        feature_scale=1.2,
        noise_sd=0.05,
        depth_noise_sd=0.1,
    )
    rng = RngState(MASTER_SEED, (5, int(scheme == "gated")))
    weights = init_model(rng, cfg, width=4)
    if scheme == "gated":
        # zero-initialized gates would make their gradients trivially zero
        weights["fuse_seg_w1"] = rng.normal(4, 4, 0.3)
        weights["fuse_dep_w1"] = rng.normal(4, 4, 0.3)
    scene_s = gen_scene(rng.derive(1), cfg)
    scene_t = shift_scene(gen_scene(rng.derive(2), cfg), cfg, rng.derive(3))
    return cfg, weights, scene_s, scene_t


def _frozen_kl_rows(teacher_logits0, student_logits):
    """Per-position KL with the teacher pinned to reference logits."""
    t = ColumnPass(teacher_logits0)
    s_log = ColumnPass(student_logits).log_prob
    return np.sum(t.prob * (t.log_prob - s_log), axis=0, keepdims=True)


def _frozen_rfa(pred, ref0, masks, c_cross, alpha):
    """Value route mirroring the RFA losses with teachers held constant
    at ref0, the reference point's Predictions, and the cross threshold
    at c_cross.

    The production losses detach their teachers, so plain finite
    differences of them measure a different function; this frozen form
    has the same gradient at the reference point and is FD-safe.
    """
    seg_mask, dep_mask = masks
    n = seg_mask.size
    on, off = seg_mask.count, n - seg_mask.count
    seg = 0.0
    if off:
        rows = _frozen_kl_rows(ref0.seg_plain, pred.seg_fused)
        seg += float(np.sum(rows * (1.0 - seg_mask.m))) / off
    if on:
        rows = _frozen_kl_rows(ref0.seg_fused, pred.seg_plain)
        seg += float(np.sum(rows * seg_mask.m)) / on
    on, off = dep_mask.count, n - dep_mask.count
    dep = 0.0
    if off:
        res = berhu_map(pred.dep_fused - ref0.dep_plain, c_cross)
        dep += float(np.sum(res * (1.0 - dep_mask.m))) / off
    if on:
        res = berhu_map(pred.dep_plain - ref0.dep_fused, c_cross)
        dep += float(np.sum(res * dep_mask.m)) / on
    return seg + alpha * dep


def check_end_to_end_gradients() -> CheckResult:
    """Overall phase-2 loss gradient against central finite differences.

    Analytic side: the gradients a training step takes, one scene's tape
    at a time, through the production losses, thresholds and all. FD
    side: the same loss with everything value-derived (pseudo labels,
    masks, each scene's plain, fused and cross berHu thresholds,
    distillation teachers) frozen at the reference point, which is
    exactly the function the analytic pass differentiates.
    """
    errors = []
    for scheme in ("add", "gated"):
        cfg, weights, scene_s, scene_t = _tiny_setup(scheme)
        _, _, grads = step_gradients(weights, scene_s, scene_t, cfg, phase=2)

        # reference-point values to freeze into the FD route
        frozen = []
        for scene in (scene_s, scene_t):
            pred0 = forward_pass(weights, scene.features, cfg)
            c_plain = berhu_threshold(pred0.dep_plain - scene.depth)
            c_fused = berhu_threshold(pred0.dep_fused - scene.depth)
            c_cross = berhu_threshold(pred0.dep_plain - pred0.dep_fused)
            seg_mask = reliability_mask(
                free_energy_map(ColumnPass(pred0.seg_plain)),
                free_energy_map(ColumnPass(pred0.seg_fused)),
            )
            dep_mask = reliability_mask(
                depth_energy_map(pred0.dep_plain, scene.depth, c_plain),
                depth_energy_map(pred0.dep_fused, scene.depth, c_fused),
            )
            frozen.append((pred0, (seg_mask, dep_mask), (c_plain, c_fused, c_cross)))
        pseudo0 = pseudo_label(ColumnPass(frozen[1][0].seg_fused), cfg.pseudo_threshold)

        def frozen_overall(wd):
            pred_s = forward_pass(wd, scene_s.features, cfg)
            pred_t = forward_pass(wd, scene_t.features, cfg)
            seg_total = sum(
                seg_nll(logits, labels, ColumnPass(logits))
                for logits, labels in (
                    (pred_s.seg_plain, scene_s.labels),
                    (pred_s.seg_fused, scene_s.labels),
                    (pred_t.seg_plain, pseudo0),
                    (pred_t.seg_fused, pseudo0),
                )
            )
            dep_total = rfa = 0.0
            for pred, scene, (pred0, masks, (c_plain, c_fused, c_cross)) in zip(
                (pred_s, pred_t), (scene_s, scene_t), frozen
            ):
                for dep, c in ((pred.dep_plain, c_plain), (pred.dep_fused, c_fused)):
                    e = dep - scene.depth
                    dep_total += float(np.sum(berhu_map(e, c))) * (1.0 / e.size)
                rfa += _frozen_rfa(pred, pred0, masks, c_cross, cfg.alpha)
            return seg_total + cfg.alpha * dep_total + cfg.beta * rfa

        names = ["enc0_w", "seg_dec_fused_w", "dep_dec_plain_w", "seg_net_b_w"]
        if scheme == "gated":
            names += ["fuse_seg_w1", "fuse_dep_w2"]
        for name in names:
            fd = central_differences(
                lambda arr, name=name: frozen_overall({**weights, name: arr}),
                weights[name],
            )
            errors.append(relative_error(grads[name], fd))
    return _verdict("end-to-end-gradients-vs-fd", errors, 1e-4)


@_per_case("full-step-energy-descent", 6, 1000, 1e-10)
def check_full_step_descent(rng, i):
    """A full (gamma = 1) update never raises the energy."""
    xi, nu = _patterns(rng, i)
    before = hopfield_energy(xi, nu)
    return hopfield_energy(hopfield_update(xi, nu, 1.0, 1), nu) - before


@_per_case("damped-descent-unit-norm", 7, 900, 1e-10)
def check_damped_descent_unit_norm(rng, i):
    """Damped updates descend when stored columns have unit norm: five
    steps from each of 300 starts at gamma 0.25, then 0.5, then 1."""
    xi, nu = _patterns(rng, i % 300, unit_norm=True)
    gamma = (0.25, 0.5, 1.0)[i // 300]
    energies = [hopfield_energy(xi, nu)]
    for _ in range(5):
        xi = hopfield_update(xi, nu, gamma, 1)
        energies.append(hopfield_energy(xi, nu))
    return np.max(np.diff(energies))


@_per_case("retrieval-convergence", 8, 100, 1e-6)
def check_retrieval_convergence(rng, i):
    """Full-step iteration settles: update distance < 1e-6 within 500."""
    xi, nu = _patterns(rng, i, unit_norm=True)
    for _ in range(500):
        nxt = hopfield_update(xi, nu, 1.0, 1)
        delta = float(np.linalg.norm(nxt - xi))
        xi = nxt
        if delta < 1e-6:
            break
    return delta


@_per_case("mask-partition-exact", 9, 300, 0.0)
def check_mask_partition(rng, i):
    cols = 1 + i % 25
    e_plain = np.round(rng.normal(1, cols, 1.0), 1)  # rounding forces ties
    e_fused = np.round(rng.normal(1, cols, 1.0), 1)
    mask = reliability_mask(e_plain, e_fused)
    off = int(np.sum(mask.m == 0.0))
    return abs(mask.count + off - cols)


def _rfa_seg_loss_on(p, q, mask: ReliabilityMask) -> float:
    """rfa_seg_loss of two logit arrays, each read through its own column pass."""
    return rfa_seg_loss(p, q, mask, (ColumnPass(p), ColumnPass(q)))


@_per_case("rfa-kl-nonnegative", 10, 300, 1e-12)
def check_kl_nonnegative(rng, i):
    k = 2 + i % 7
    cols = 1 + i % 20
    p = rng.normal(k, cols, 3.0)
    q = rng.normal(k, cols, 3.0)
    mask = ReliabilityMask(m=(rng.uniform(0.0, 1.0, 1, cols) < 0.5).astype(float))
    # np.maximum keeps a NaN loss, which Python's max can drop
    return np.maximum(-_rfa_seg_loss_on(p, q, mask), 0.0)


def check_kl_zero_iff_equal() -> CheckResult:
    """Logits that differ by a per-column shift score below tol; logits
    that differ otherwise score above it."""
    rng = _rng(11)
    equal, unequal = [], []
    for i in range(100):
        k = 2 + i % 5
        cols = 1 + i % 10
        p = rng.normal(k, cols, 2.0)
        shift = rng.normal(1, cols, 1.0)
        mask = ReliabilityMask(m=(rng.uniform(0.0, 1.0, 1, cols) < 0.5).astype(float))
        equal.append(_rfa_seg_loss_on(p, p + shift, mask))
        q = p + rng.normal(k, cols, 0.5)
        unequal.append(_rfa_seg_loss_on(p, q, mask))
    result = _verdict("rfa-kl-zero-iff-equal", equal, 1e-12)
    result.passed &= bool(np.min(unequal) > 1e-12)  # False on a NaN too
    return result


def check_teacher_gradient_zero() -> CheckResult:
    """Masked distillation sends no gradient into the teacher columns."""
    rng = _rng(12)
    k, cols = 4, 10
    mask = ReliabilityMask(m=(np.arange(cols) < cols // 2).astype(float))

    g = DiffGraph()
    p_plain = g.leaf(rng.normal(k, cols, 2.0))
    p_fused = g.leaf(rng.normal(k, cols, 2.0))
    passes = (ColumnPass(p_plain.data), ColumnPass(p_fused.data))
    seg = g.backward(sum_all(rfa_seg_loss(p_plain, p_fused, mask, passes)))

    g = DiffGraph()
    d_plain = g.leaf(rng.normal(1, cols, 1.0))
    d_fused = g.leaf(rng.normal(1, cols, 1.0))
    dep = g.backward(sum_all(rfa_dep_loss(d_plain, d_fused, mask, 0.5)))
    # plain teaches where m = 0, fused teaches where m = 1
    teachers = (
        seg[p_plain.nid][:, mask.m[0] == 0.0],
        seg[p_fused.nid][:, mask.m[0] == 1.0],
        dep[d_plain.nid][:, mask.m[0] == 0.0],
        dep[d_fused.nid][:, mask.m[0] == 1.0],
    )
    errors = [np.max(np.abs(t)) for t in teachers]
    return _verdict("rfa-teacher-gradient-zero", errors, 0.0)


def check_degenerate_masks() -> CheckResult:
    rng = _rng(13)
    k, cols = 3, 8
    p = rng.normal(k, cols, 2.0)
    q = rng.normal(k, cols, 2.0)
    dp = rng.normal(1, cols, 1.0)
    dq = rng.normal(1, cols, 1.0)
    vals = []
    for m in (np.zeros((1, cols)), np.ones((1, cols))):
        mask = ReliabilityMask(m=m)
        vals.append(_rfa_seg_loss_on(p, q, mask))
        vals.append(float(rfa_dep_loss(dp, dq, mask, 0.4)))
    errors = np.where(np.isfinite(vals), 0.0, np.inf)
    return _verdict("degenerate-mask-finite", errors, 0.0)


@_per_case("gamma-zero-bypass-bitwise", 14, 200, 0.0)
def check_gamma_zero_bypass(rng, i):
    """gamma = 0 must reduce to the plain fusion scheme bit for bit."""
    d = 2 + i % 6
    cols = 1 + i % 9
    q = rng.normal(d, cols, 2.0)
    o = rng.normal(d, cols, 2.0)
    steps = (0, 1, 3, 7)[i % 4]
    gate = None if i % 2 == 0 else (rng.normal(d, d, 1.0), rng.normal(d, d, 1.0))
    got = eb2f_apply(q, o, 0.0, steps, gate)
    want = fuse(o, q, gate)
    # bytes, not values: -0.0 == 0.0 as numbers
    exact = got.shape == want.shape and got.tobytes() == want.tobytes()
    return 0.0 if exact else np.inf


@_per_case("berhu-threshold-continuity", 15, 100, 1e-6)
def check_berhu_continuity(rng, _):
    eps = 1e-8
    c = float(rng.uniform(0.1, 3.0, 1, 1)[0, 0])
    lo = berhu_map(np.array([[c - eps]]), c)[0, 0]
    hi = berhu_map(np.array([[c + eps]]), c)[0, 0]
    return abs(hi - lo)


def check_autodiff_composite() -> CheckResult:
    """One function through a node of every kind a training step records
    (add, scale, shift, sum, dense, hopfield, gate, seg_nll, berhu_map,
    kl_row), against finite differences. Its leaf x is a column, so it
    can be every dense bias, and every dense and gate weight is computed
    from it."""
    rng = _rng(16)
    widen_sq = rng.normal(1, 6, 1.0)
    widen = rng.normal(1, 5, 1.0)
    teacher = rng.normal(6, 5, 1.5)
    labels = LabelMap(np.array([2, IGNORE, 0, 5, 1]))

    def f(x):
        sq = _dense({"l_w": x, "l_b": x}, "l", widen_sq, tanh=True)
        h = _dense({"l_w": x * 0.8, "l_b": x}, "l", widen, tanh=True)
        h = _dense({"l_w": sq * 0.5, "l_b": x * 0.2}, "l", h, tanh=True, skip=h)
        u = hopfield_update(h, h * 0.5 + 0.3, 0.7, 2)
        v = fuse(u, h, gate=(sq * 0.6, 0.5 - sq))
        # v - teacher has entries on both sides of c = 0.5, so both branches count
        dep = sum_all(berhu_map(v - teacher, 0.5)) * 0.2
        cols = ColumnPass(v.data)
        kl = sum_all(_kl_row(ColumnPass(teacher), v, cols))
        return seg_nll(v, labels, cols) + kl * 0.1 + dep

    return _verdict("autodiff-composite-vs-fd", grad_check(f, rng.normal(6, 1, 0.8)), 1e-6)


ALL_CHECKS = (
    check_two_form_identity,
    check_energy_softmax_identity,
    check_seg_nll_is_cross_entropy,
    check_hopfield_gradient_fd,
    check_end_to_end_gradients,
    check_full_step_descent,
    check_damped_descent_unit_norm,
    check_retrieval_convergence,
    check_mask_partition,
    check_kl_nonnegative,
    check_kl_zero_iff_equal,
    check_teacher_gradient_zero,
    check_degenerate_masks,
    check_gamma_zero_bypass,
    check_berhu_continuity,
    check_autodiff_composite,
)


def run_verification() -> Report:
    return Report(results=[check() for check in ALL_CHECKS])
